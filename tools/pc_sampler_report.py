#!/usr/bin/env python3
"""Symbolizes a tools/pc_sampler.c sample file with nm and prints shares.

    python3 tools/pc_sampler_report.py samples.txt [--top N]
        [--group NAME=REGEX ...] [--require REGEX]

Each sample is charged to the function holding its PC. A sample inside a
shared library (libc, libstdc++, libm) is charged to the main program's
function that the word at the stack pointer returns into, when it does: that
is a leaf call such as memcmp, shown as "caller <- lib". Other library
samples stay with the library. Names are demangled and cut at their argument
list, so a lambda counts toward its enclosing function. A PC past the end of
the symbol before it (by the size `nm -S` reports) lies in code the symbol
table does not name, such as libc's static malloc internals, and is named
"?" rather than after that symbol.

--group sums the shares of the charged names matching REGEX under NAME (a
layer, say) and may repeat. --require exits 1 unless at least one sample is
charged to a name matching REGEX.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys

TEXT_TYPES = set("tTwWiI")
OPERATOR = re.compile(r"operator(\(\)|<=>|<<=|>>=|<<|>>|<=|>=|->\*?|<|>)")


def short_name(name):
    """A demangled name cut at its argument list (outside templates)."""
    name = name.replace("(anonymous namespace)", "{anon}")
    depth, i = 0, 0
    while i < len(name):
        op = OPERATOR.match(name, i)
        if op:
            i = op.end()
            continue
        c = name[i]
        if c in "<{":
            depth += 1
        elif c in ">}":
            depth -= 1
        elif c == "(" and depth <= 0:
            return name[:i]
        i += 1
    return name


def load_symbols(path):
    """Sorted (address, size, name) lists of the text symbols of one ELF file.

    A size is 0 where nm reports none; such a symbol's extent is unknown.
    """
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only"] + extra + [path],
                                 capture_output=True, text=True).stdout
        except OSError:
            return [], [], []
        addrs, sizes, names = [], [], []
        for line in out.splitlines():
            # "addr size type name", or "addr type name" for a symbol without a size.
            parts = line.split(" ", 3)
            if len(parts) >= 3 and len(parts[1]) == 1:
                parts = [parts[0], "0"] + line.split(" ", 2)[1:]
            if len(parts) == 4 and parts[2] in TEXT_TYPES:
                addrs.append(int(parts[0], 16))
                sizes.append(int(parts[1], 16))
                names.append(short_name(parts[3]))
        if addrs:
            return addrs, sizes, names
    return [], [], []


def elf_is_pie(path):
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return True
    return len(header) == 18 and header[16] == 3  # e_type == ET_DYN


class Image:
    """One mapped file: its load bias and symbols."""

    def __init__(self, path, bias):
        self.path = path
        self.name = os.path.basename(path)
        self.bias = bias if elf_is_pie(path) else 0
        self.addrs, self.sizes, self.names = load_symbols(path)

    def symbol(self, pc):
        offset = pc - self.bias
        i = bisect.bisect_right(self.addrs, offset) - 1
        if i < 0 or 0 < self.sizes[i] <= offset - self.addrs[i]:
            return "?"
        return self.names[i]


def parse(path):
    exe, maps, samples, dropped = None, [], [], 0
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "s":
                pc, word = rest.split()
                samples.append((int(pc, 16), int(word, 16)))
            elif kind == "map":
                fields = rest.split(None, 5)
                if len(fields) == 6 and fields[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, fields[1], int(fields[2], 16), fields[5]))
            elif kind == "exe":
                exe = rest
            elif kind == "dropped":
                dropped = int(rest)
    return exe, maps, samples, dropped


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("samples")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--group", action="append", default=[], metavar="NAME=REGEX")
    parser.add_argument("--require", metavar="REGEX")
    args = parser.parse_args()

    exe, maps, samples, dropped = parse(args.samples)
    # Load bias per file: the start of its offset-0 mapping.
    bias = {}
    for lo, _, _, offset, path in maps:
        if offset == 0 and path not in bias:
            bias[path] = lo
    images = {}
    spans = []  # (lo, hi, path) of executable mappings.
    for lo, hi, perms, _, path in maps:
        if "x" in perms:
            spans.append((lo, hi, path))
    spans.sort()
    starts = [s[0] for s in spans]

    def resolve(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= spans[i][1]:
            return None, None
        path = spans[i][2]
        if path not in images:
            images[path] = Image(path, bias.get(path, spans[i][0]))
        image = images[path]
        return image, image.symbol(addr)

    charged = collections.Counter()
    for pc, word in samples:
        image, name = resolve(pc)
        if image is None:
            charged["[unmapped]"] += 1
        elif image.path == exe:
            charged[name] += 1
        else:
            caller_image, caller = resolve(word)
            if caller_image is not None and caller_image.path == exe:
                charged["%s <- %s" % (caller, image.name)] += 1
            else:
                charged["[%s] %s" % (image.name, name)] += 1

    total = len(samples)
    print("%d samples from %s%s" % (total, exe or "?",
                                   " (%d dropped)" % dropped if dropped else ""))
    if total == 0:
        return 1 if args.require else 0
    print("%7s %7s  %s" % ("share", "samples", "function"))
    for name, count in charged.most_common(args.top):
        print("%6.1f%% %7d  %s" % (100.0 * count / total, count, name))
    for spec in args.group:
        label, _, regex = spec.partition("=")
        pattern = re.compile(regex)
        count = sum(c for name, c in charged.items() if pattern.search(name))
        print("group %s: %.1f%% (%d samples)" % (label, 100.0 * count / total, count))
    if args.require:
        pattern = re.compile(args.require)
        hits = sum(c for name, c in charged.items() if pattern.search(name))
        if hits == 0:
            print("no sample charged to a name matching %r" % args.require)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
