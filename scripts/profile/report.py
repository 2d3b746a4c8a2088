#!/usr/bin/env python3
"""Symbolize altoc-prof.<pid>.txt sample files (scripts/profile/
sampler.c) and print where the sampled time went.

Usage: scripts/profile/report.py FILE...   (scripts/profile.sh runs it)

Every address is symbolized with `addr2line -f -i -C`, so a frame
expands into its inline chain and inlined functions count as
functions. Names are shortened: no template arguments, parameter
lists or return types. Four tables follow:

  self share per function     the innermost qualified function of
                              each sample outside std and __gnu_cxx,
                              so an inlined container accessor counts
                              toward the simulator function using it
                              and a closure body toward its thunk
                              (InlineFunction::consumeImpl)
  self share per namespace    the same, grouped by its leading
                              lower-case namespace components
                              (altoc::core, altoc::sim, ...)
  inclusive share per dispatched callback
                              the function the event loop's dispatch
                              (EventQueue::dispatchFront) calls, past
                              the closure thunk and the lambda. The
                              queue's own time is (event queue);
                              bench/perf's reference kernel is
                              reported apart as referenceMs; set-up,
                              summaries and stacks too deep for the
                              12 recorded frames are (outside the
                              event loop).
  inclusive share per function
                              every function named anywhere in a
                              sample's stack, inline chains included,
                              counted once per sample however often
                              it recurs there, so a constructor's
                              share covers everything it calls. A
                              caller more than 12 frames above the
                              leaf is not seen; unsymbolized frames
                              (??) are left out.
"""

import collections
import re
import subprocess
import sys

DISPATCH = "EventQueue::dispatchFront"
LOOP = "Simulator::Loop::run"
REFERENCE = "referenceMs"
QUEUE = "(event queue)"
OUTSIDE = "(outside the event loop)"
TOP = 25


def read_samples(paths):
    """[(samples, dropped)] per file; a sample is a list of
    (object path, vaddr) pairs, leaf first."""
    runs = []
    for path in paths:
        objects, samples, dropped = {}, [], 0
        with open(path) as f:
            for line in f:
                kind, _, rest = line.rstrip("\n").partition(" ")
                if kind == "O":
                    idx, _, obj = rest.partition(" ")
                    objects[int(idx)] = obj
                elif kind == "S":
                    frames = []
                    for tok in rest.split():
                        idx, _, addr = tok.partition(":")
                        frames.append((objects.get(int(idx), "?"),
                                       int(addr, 16)))
                    samples.append(frames)
                elif kind == "D":
                    dropped += int(rest)
        runs.append((samples, dropped))
    return runs


def symbolize(addresses):
    """(object, vaddr) -> inline chain of function names, innermost
    first, by one addr2line process per object."""
    by_object = collections.defaultdict(set)
    for obj, addr in addresses:
        by_object[obj].add(addr)
    names = {}
    for obj, addrs in by_object.items():
        addrs = sorted(addrs)
        if obj in ("?", ""):
            for a in addrs:
                names[(obj, a)] = ["??"]
            continue
        proc = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
            input="".join("%x\n" % a for a in addrs),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        chains, current = [], None
        lines = proc.stdout.splitlines()
        i = 0
        while i < len(lines):
            if re.fullmatch(r"0x[0-9a-f]+", lines[i]):
                current = []
                chains.append(current)
                i += 1
                continue
            if current is not None:
                current.append(lines[i])
            i += 2  # function line, then file:line
        for a, chain in zip(addrs, chains):
            names[(obj, a)] = chain or ["??"]
        for a in addrs[len(chains):]:
            names[(obj, a)] = ["??"]
    return names


OPERATORS = re.compile(r"operator(\(\)|<<=|>>=|<<|>>|<=|>=|->\*?|<|>)")


def short_name(func):
    """@p func without template arguments, parameter lists, return
    type or trailing const: altoc::core::GroupScheduler::runtimeTick,
    altoc::cpu::Core::run::{lambda#1}::operator()."""
    ops = []

    def stash(m):
        ops.append(m.group(0))
        return "operator{%d}" % (len(ops) - 1)

    name = OPERATORS.sub(stash, func.replace("(anonymous namespace)",
                                             "{anon}"))
    out, depth = [], 0
    for ch in name:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    name = "".join(out).strip()
    if name.endswith(" const"):
        name = name[:-len(" const")]
    name = name.split(" ")[-1].replace("{anon}", "(anonymous namespace)")
    return re.sub(r"operator\{(\d+)\}", lambda m: ops[int(m.group(1))],
                  name)


def is_library(name):
    return name.startswith(("std::", "__gnu_cxx::"))


def is_plumbing(name):
    """The closure machinery between dispatch and a callback."""
    return ("InlineFunction::" in name or "{lambda" in name or
            name == "operator()")


def self_function(chain):
    """The sample's self function (chain: short names, leaf first)."""
    for name in chain:
        if "::" in name and not is_library(name):
            return name
    for name in chain:
        if not is_library(name) and name != "operator()":
            return name
    return chain[0]


def namespace_of(name):
    """Leading lower-case namespace components of a short name."""
    ns = []
    for part in name.split("::")[:-1]:
        if part != "(anonymous namespace)" and \
                not re.fullmatch(r"[a-z_0-9]+", part):
            break
        ns.append(part)
    return "::".join(ns) or "(global)"


def callback_of(frames):
    """The dispatched callback of one sample: frames are the sample's
    frames leaf first, each an inline chain of short names, innermost
    first."""
    if any(REFERENCE in n for chain in frames for n in chain):
        return REFERENCE
    for j, chain in enumerate(frames):
        if not any(DISPATCH in n for n in chain):
            continue
        # Walk from the dispatch site toward the leaf; within a frame
        # the outermost function is the one called.
        for k in range(j - 1, -1, -1):
            for name in reversed(frames[k]):
                if "::" in name and not is_plumbing(name) and \
                        not is_library(name):
                    return name
        return QUEUE if j == 0 else "(closure thunk)"
    if any(LOOP in n for chain in frames for n in chain):
        return QUEUE
    return OUTSIDE


def table(title, counts, total, limit=TOP, additive=True):
    """Print the top @p limit rows. A table whose rows overlap
    (@p additive false) has no share left over to print."""
    print()
    print("%s (%d samples)" % (title, total))
    for name, n in counts.most_common(limit):
        print("  %6.2f%%  %s" % (100.0 * n / total, name))
    if len(counts) <= limit:
        return
    if additive:
        rest = sum(counts.values()) - sum(n for _, n in
                                          counts.most_common(limit))
        print("  %6.2f%%  (%d more)" % (100.0 * rest / total,
                                        len(counts) - limit))
    else:
        print("           (%d more)" % (len(counts) - limit))


def main(paths):
    if not paths:
        sys.exit(__doc__)
    runs = read_samples(paths)
    samples = [s for run, _ in runs for s in run]
    dropped = sum(d for _, d in runs)
    if not samples:
        sys.exit("report.py: no samples in " + " ".join(paths))
    # A return address points past its call: look the call itself up.
    keyed = [[(obj, addr - (1 if i > 0 else 0))
              for i, (obj, addr) in enumerate(s)] for s in samples]
    names = symbolize({a for s in keyed for a in s})

    self_fn = collections.Counter()
    self_ns = collections.Counter()
    callbacks = collections.Counter()
    inclusive = collections.Counter()
    for s in keyed:
        frames = [[short_name(f) for f in names[a]] for a in s]
        flat = [n for chain in frames for n in chain]
        fn = self_function(flat)
        self_fn[fn] += 1
        self_ns[namespace_of(fn)] += 1
        callbacks[callback_of(frames)] += 1
        inclusive.update(set(flat) - {"??"})
    total = len(samples)
    print("%d samples from %d process(es), %d dropped" % (
        total, len(runs), dropped))
    table("Self share per function", self_fn, total)
    table("Self share per namespace", self_ns, total)
    table("Inclusive share per dispatched callback", callbacks, total)
    table("Inclusive share per function", inclusive, total,
          additive=False)


if __name__ == "__main__":
    main(sys.argv[1:])
