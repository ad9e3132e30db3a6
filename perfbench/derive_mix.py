"""Count the Remos queries the repository's own applications make.

The ``wan-flow`` request mix is taken from these counts (see
``WORKLOADS.md``).  The script runs the three application examples
once each, as shipped -- mirror selection (§5.4), video server choice
(§5.5) and compute-node selection (§6.3) -- with every ``RemosSession``
query method wrapped to record its kind, its options and its size.

Run from the repository root (it takes under a second)::

    python3 perfbench/derive_mix.py

It prints one line per application and the pooled shares.  Not part
of a benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ("mirror_selection", "video_streaming", "node_selection")


def count_calls(example: str) -> tuple[Counter, Counter]:
    """Run one example; return (calls by kind, request sizes by kind)."""
    from repro.session import RemosSession

    calls: Counter = Counter()
    sizes: Counter = Counter()
    originals = {}

    def wrap(name, size_of):
        fn = getattr(RemosSession, name)
        originals[name] = fn

        def counted(self, *args, **kwargs):
            kind = name
            if kwargs.get("predict"):
                kind += "+predict"
            if name == "topology":
                kind += f"+{kwargs.get('detail', 'simplified')}"
            calls[kind] += 1
            sizes[(kind, size_of(args))] += 1
            return fn(self, *args, **kwargs)

        setattr(RemosSession, name, counted)

    wrap("flow_info", lambda a: 1)
    wrap("flow_info_many", lambda a: len(list(a[0])))
    wrap("topology", lambda a: len(list(a[0])))
    wrap("node_info", lambda a: len(list(a[0])))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "examples" / f"{example}.py"), run_name="__main__")
    finally:
        for name, fn in originals.items():
            setattr(RemosSession, name, fn)
    return calls, sizes


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    pooled: Counter = Counter()
    for example in EXAMPLES:
        calls, sizes = count_calls(example)
        pooled += calls
        shown = ", ".join(f"{k}={v}" for k, v in sorted(calls.items()))
        sized = ", ".join(f"{k}[{n}]x{v}" for (k, n), v in sorted(sizes.items()))
        print(f"{example}: {shown}; sizes: {sized}")
    total = sum(pooled.values())
    print(f"pooled over {total} calls: " + ", ".join(
        f"{k}={v} ({v / total:.3f})" for k, v in sorted(pooled.items())
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
