"""Run every pinned command in two source trees and report what moved.

Usage: ``python tests/golden_diff.py BASE NEW``

BASE and NEW are source trees, made for example with ``git archive REV |
tar -x -C DIR`` or ``git worktree add DIR REV``. Each command of
``golden.GOLDEN`` and ``golden.PERFBENCH`` runs in both trees as ``python -m
poolgame.cli ARGS``, in a subprocess with ``PYTHONPATH=<tree>/src``. Per
command it prints "identical", or:

* the number of stdout lines that moved, out of NEW's total;
* the first moved line, as BASE and NEW print it;
* the largest absolute move of each numeric column, named by its CSV
  header (or by the name before ``:`` on a ``# name: value`` line);
* NEW's digest, and whether it still matches the pinned one.

Monte-Carlo commands get the same report; judge their moves against the
standard errors they print. A footer gives the count of identical commands
and each tree's ``src/poolgame`` line count, as ``wc -l`` counts it, with
the modules whose count moved. Exits 1 when any output moved or any
command failed in either tree.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

from golden import GOLDEN, PERFBENCH

ROOT = Path(__file__).resolve().parents[1]


def run(tree: Path, args) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "poolgame.cli", *args], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout if proc.returncode == 0 else proc.stderr


def fields(line: str, header: list[str]) -> dict[str, str]:
    """A line's values by column name."""
    if line.startswith("#"):
        name, sep, value = line[1:].strip().rpartition(": ")
        return {name: value} if sep else {}
    values = line.split(",")
    return {header[i] if i < len(header) else f"column {i}": v for i, v in enumerate(values)}


def number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def moves(base: str, new: str) -> tuple[int, int | None, dict[str, float]]:
    """Lines moved, the index of the first, and the largest move per numeric
    column. Lines compare by position; lines only one output has all count
    as moved."""
    a, b = base.splitlines(), new.splitlines()
    moved = [i for i in range(max(len(a), len(b)))
             if i >= len(a) or i >= len(b) or a[i] != b[i]]
    largest: dict[str, float] = {}
    header: list[str] = []
    for i in range(min(len(a), len(b))):
        if not b[i].startswith("#") and all(number(v) is None for v in b[i].split(",")):
            header = b[i].split(",")
        if a[i] == b[i]:
            continue
        old, now = fields(a[i], header), fields(b[i], header)
        for name in now.keys() & old.keys():
            x, y = number(old[name]), number(now[name])
            if x is None or y is None:
                continue
            move = 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(y - x)
            largest[name] = max(largest.get(name, 0.0), move)
    return len(moved), moved[0] if moved else None, largest


def report(label: str, base_run, new_run, pinned: str, skip_header: bool) -> bool:
    """Print one command's report; whether its output is identical."""
    (base_code, base), (new_code, new) = base_run, new_run
    if base_code or new_code:
        print(f"{label}: FAILED (exit {base_code} in BASE, {new_code} in NEW)")
        for tree, code, text in (("BASE", base_code, base), ("NEW", new_code, new)):
            if code:
                print(f"    {tree}: {text.strip().splitlines()[-1] if text.strip() else ''}")
        return False
    digest = hashlib.sha256((new.partition("\n")[2] if skip_header else new).encode()).hexdigest()
    if base == new:
        print(f"{label}: identical" + ("" if digest == pinned else ", but not the pinned output"))
        return True
    count, first, largest = moves(base, new)
    a, b = base.splitlines(), new.splitlines()
    print(f"{label}: {count} of {len(b)} lines moved")
    print(f"    first moved line {first + 1}:")
    print(f"      BASE {a[first] if first < len(a) else '(none)'}")
    print(f"      NEW  {b[first] if first < len(b) else '(none)'}")
    for name, move in sorted(largest.items()):
        if move:
            print(f"    largest move of {name}: {move:.3g}")
    print(f"    NEW digest {digest} ({'matches' if digest == pinned else 'differs from'} "
          f"the pinned one)")
    return False


def line_counts(tree: Path) -> dict[str, int]:
    """Lines per module of ``src/poolgame`` in ``tree``, as ``wc -l`` counts them."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in (tree / "src" / "poolgame").glob("*.py")}


def lines_report(base: Path, new: Path) -> str:
    """Both trees' ``src/poolgame`` line counts, and the modules that moved."""
    old, now = line_counts(base), line_counts(new)
    moved = [f"{name} {old.get(name, 0)} -> {now.get(name, 0)}"
             for name in sorted(old.keys() | now.keys()) if old.get(name) != now.get(name)]
    return (f"src/poolgame: {sum(old.values())} lines in BASE, {sum(now.values())} in NEW"
            + (f" ({', '.join(moved)})" if moved else ""))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = (Path(tree).resolve() for tree in argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import DIGESTS

    commands = [(" ".join(args), args, digest, False) for args, digest in GOLDEN]
    commands += [(f"perfbench {name}: {' '.join(args)}", args, DIGESTS[name], True)
                 for name, args in PERFBENCH.items()]
    same = [report(label, run(base, args), run(new, args), digest, skip_header)
            for label, args, digest, skip_header in commands]
    print(f"{sum(same)} of {len(same)} commands identical")
    print(lines_report(base, new))
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
