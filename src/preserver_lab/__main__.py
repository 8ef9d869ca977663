"""``python -m preserver_lab`` and the ``preserver-lab`` script: run :mod:`preserver_lab.cli` as ``__main__``."""

import runpy


def main() -> None:
    runpy.run_module("preserver_lab.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
