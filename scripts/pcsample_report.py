#!/usr/bin/env python3
"""Symbolize a pcsample.so dump and print the top symbols by self share.

    python3 scripts/pcsample_report.py DUMP [DUMP ...]

The dump (see scripts/pcsample.cpp) is /proc/self/maps of the sampled
process, a "--- samples N" line, then one hex address per sample. Each
address is mapped to the file it was loaded from and looked up in that
file's symbol table (nm, demangled; the dynamic table when the file is
stripped). Self share is the fraction of samples whose address falls
inside the symbol, so inlined callees count toward their caller. Several
dumps (for instance one per run of a short binary) are pooled.
"""

import argparse
import bisect
import collections
import subprocess
import sys

TOP = 30


def parse_dump(path):
    maps, pcs, in_samples = [], [], False
    with open(path) as f:
        for line in f:
            if line.startswith("--- samples"):
                in_samples = True
            elif in_samples:
                pcs.append(int(line, 16))
            else:
                parts = line.split(maxsplit=5)
                if len(parts) < 6 or "x" not in parts[1]:
                    continue  # anonymous or non-executable mapping
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    return maps, pcs


def is_pie(path):
    """True for ET_DYN (PIE executables and shared libraries)."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return True
    return len(header) == 18 and header[16] == 3


class SymbolTable:
    def __init__(self, path):
        self.addrs, self.names = [], []
        rows = []
        for flags in (["--defined-only"], ["--defined-only", "-D"]):
            try:
                out = subprocess.run(["nm", "-C", "-n", *flags, path],
                                     capture_output=True, text=True,
                                     check=False).stdout
            except OSError:
                out = ""
            for line in out.splitlines():
                parts = line.split(maxsplit=2)
                if len(parts) == 3 and parts[1] in "tTwWiI":
                    rows.append((int(parts[0], 16), parts[2]))
            if rows:
                break
        rows.sort()
        self.addrs = [a for a, _ in rows]
        self.names = [n for _, n in rows]

    def lookup(self, vaddr):
        i = bisect.bisect_right(self.addrs, vaddr) - 1
        return self.names[i] if i >= 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dumps", nargs="+")
    args = ap.parse_args()

    tables, pie = {}, {}
    counts = collections.Counter()
    for dump in args.dumps:
        maps, pcs = parse_dump(dump)
        starts = [m[0] for m in maps]
        for pc in pcs:
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                counts["[unmapped]"] += 1
                continue
            lo, _, offset, path = maps[i]
            if path not in tables:
                tables[path] = SymbolTable(path)
                pie[path] = is_pie(path)
            vaddr = pc - lo + offset if pie[path] else pc
            name = tables[path].lookup(vaddr)
            counts[name or f"[{path.rsplit('/', 1)[-1]}]"] += 1

    total = sum(counts.values())
    if total == 0:
        print("no samples recorded", file=sys.stderr)
        return 1
    print(f"{total} samples; top {TOP} symbols by self share")
    for name, n in counts.most_common(TOP):
        print(f"{100.0 * n / total:6.2f}%  {n:8d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
