#!/usr/bin/env python3
"""Public-surface report: the defined external powerlens:: code symbols of
each pl_* static library in a build tree, counted per library.

    python3 tools/surface.py [BUILD_DIR] [--list]

BUILD_DIR defaults to ./build. A symbol is counted when
`nm -C --defined-only -g` prints it with type T and a name starting with
`powerlens::` (constructor variants that demangle to the same name count
separately, as nm prints them). --list prints every counted symbol under
its library. Needs binutils `nm`; reads the libraries, writes nothing.
"""

import argparse
import pathlib
import subprocess
import sys


def library_symbols(archive):
    out = subprocess.run(
        ["nm", "-C", "--defined-only", "-g", str(archive)],
        check=True, capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T" and parts[2].startswith(
                "powerlens::"):
            symbols.append(parts[2])
    return symbols


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", nargs="?", default="build")
    parser.add_argument("--list", action="store_true",
                        help="print every counted symbol")
    args = parser.parse_args()

    archives = sorted(pathlib.Path(args.build_dir).glob("src/*/libpl_*.a"))
    if not archives:
        sys.exit(f"surface: no src/*/libpl_*.a under {args.build_dir}")
    total = 0
    for archive in archives:
        symbols = library_symbols(archive)
        total += len(symbols)
        name = archive.stem.removeprefix("lib")
        print(f"{name:16} {len(symbols):5}")
        if args.list:
            for symbol in sorted(symbols):
                print(f"    {symbol}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
