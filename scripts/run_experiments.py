#!/usr/bin/env python3
"""Reproduce the full evaluation: a shim for ``windforecast reproduce``, with the same flags."""

import sys

from windforecast import cli


def main(argv=None) -> int:
    return cli.main(["reproduce", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
