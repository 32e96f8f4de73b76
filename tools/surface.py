#!/usr/bin/env python3
"""Public-surface report: the defined external powerlens:: code symbols of
each pl_* static library in a build tree, counted per library.

    python3 tools/surface.py [BUILD_DIR] [--list]
    python3 tools/surface.py BUILD_DIR --reach [--extra-binary PATH ...]

BUILD_DIR defaults to ./build. A symbol is counted when
`nm -C --defined-only -g` prints it with type T and a name starting with
`powerlens::` (constructor variants that demangle to the same name count
separately, as nm prints them). --list prints every counted symbol under
its library.

--reach sorts every counted symbol by which linked binaries still define
it. Run it on a tree configured with

    -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections
    -fdata-sections" -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

so nothing is inlined and the linker drops every function no entry point
reaches. Executables under BUILD_DIR/tests are test binaries; every other
executable in the tree (examples/, bench/, tools/) and each --extra-binary
(the perfbench driver, built the same way from perfbench/CMakeLists.txt)
is a production binary. Each symbol is then reached by production, by
tests only, or by nothing. The report prints the three counts per library
and lists the test-only and unreached symbols; the exit status is 1 when
any symbol is reached by nothing.

Needs binutils `nm`; reads the build tree, writes nothing.
"""

import argparse
import collections
import pathlib
import subprocess
import sys


def defined_symbols(path, types):
    """Maps mangled name -> demangled name for the powerlens:: symbols that
    `path` defines with one of `types`."""
    mangled = subprocess.run(
        ["nm", "--defined-only", "-g", str(path)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    demangled = subprocess.run(
        ["nm", "-C", "--defined-only", "-g", str(path)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    symbols = {}
    for raw, pretty in zip(mangled, demangled):
        raw_parts = raw.split(" ", 2)
        parts = pretty.split(" ", 2)
        if (len(parts) == 3 and parts[1] in types and
                parts[2].startswith("powerlens::")):
            symbols[raw_parts[2]] = parts[2]
    return symbols


def library_archives(build_dir):
    archives = sorted(pathlib.Path(build_dir).glob("src/*/libpl_*.a"))
    if not archives:
        sys.exit(f"surface: no src/*/libpl_*.a under {build_dir}")
    return archives


def executables(build_dir):
    """Every linked ELF executable in the tree outside CMake's own probes."""
    for path in sorted(pathlib.Path(build_dir).rglob("*")):
        if (not path.is_file() or "CMakeFiles" in path.parts or
                not path.stat().st_mode & 0o111):
            continue
        with open(path, "rb") as f:
            if f.read(4) == b"\x7fELF":
                yield path


def count(build_dir, show):
    total = 0
    for archive in library_archives(build_dir):
        symbols = list(defined_symbols(archive, {"T"}).values())
        total += len(symbols)
        name = archive.stem.removeprefix("lib")
        print(f"{name:16} {len(symbols):5}")
        if show:
            for symbol in sorted(symbols):
                print(f"    {symbol}")
    print(f"{'total':16} {total:5}")
    return 0


def reach(build_dir, extra_binaries, show):
    root = pathlib.Path(build_dir)
    production, tests = set(), set()
    binaries = [(p, p.relative_to(root).parts[0] == "tests")
                for p in executables(root)]
    binaries += [(pathlib.Path(p), False) for p in extra_binaries]
    for path, is_test in binaries:
        defined = defined_symbols(path, {"T", "t", "W", "w"})
        (tests if is_test else production).update(defined)
    if not any(not is_test for _, is_test in binaries):
        sys.exit(f"surface: no production executables under {build_dir}")

    classes = collections.OrderedDict(
        (c, []) for c in ("production", "test-only", "unreached"))
    print(f"{'library':16} {'total':>5} {'prod':>5} {'tests':>5} {'none':>5}")
    for archive in library_archives(build_dir):
        per = collections.Counter()
        name = archive.stem.removeprefix("lib")
        for raw, pretty in defined_symbols(archive, {"T"}).items():
            c = ("production" if raw in production else
                 "test-only" if raw in tests else "unreached")
            per[c] += 1
            classes[c].append((name, pretty))
        print(f"{name:16} {sum(per.values()):5} {per['production']:5} "
              f"{per['test-only']:5} {per['unreached']:5}")
    print(f"{'total':16} {sum(len(v) for v in classes.values()):5} "
          f"{len(classes['production']):5} {len(classes['test-only']):5} "
          f"{len(classes['unreached']):5}")
    for c, symbols in classes.items():
        if c == "production" and not show:
            continue
        if symbols:
            print(f"\n{c} ({len(symbols)}):")
            for name, pretty in sorted(symbols):
                print(f"    {name:12} {pretty}")
    return 1 if classes["unreached"] else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", nargs="?", default="build")
    parser.add_argument("--list", action="store_true",
                        help="print every counted symbol")
    parser.add_argument("--reach", action="store_true",
                        help="classify symbols by the binaries that keep "
                             "them (gc-sections build)")
    parser.add_argument("--extra-binary", action="append", default=[],
                        metavar="PATH",
                        help="another production executable (--reach)")
    args = parser.parse_args()
    if args.reach:
        return reach(args.build_dir, args.extra_binary, args.list)
    if args.extra_binary:
        parser.error("--extra-binary needs --reach")
    return count(args.build_dir, args.list)


if __name__ == "__main__":
    sys.exit(main())
