"""Print the Python source the tracker writes for one corpus function, so
that two trees' generated code can be diffed.

    python3 tools/show_code.py MODULE FN [--untracked]

MODULE is a corpus program (`bench_user`, `bench_memcpy`, `libcorpus`,
`student_flow`) and FN one of its functions, with or without its `@`.  The
tracked code is printed unless `--untracked` is given.  The package is
imported from the tree the script is in.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from taintsum import corpus  # noqa: E402
from taintsum.tracker import DEFAULT_MEMORY, _shared, _Writer  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", choices=corpus.NAMES, help="corpus program")
    ap.add_argument("fn", help="function name")
    ap.add_argument("--untracked", action="store_true",
                    help="print the untracked code instead of the tracked code")
    args = ap.parse_args(argv)
    module = corpus.load_module(args.module)
    fn = module.functions.get(args.fn.lstrip("@"))
    if fn is None:
        ap.error(f"no function @{args.fn.lstrip('@')} in {args.module}")
    writer = _Writer(_shared(module), fn, not args.untracked, DEFAULT_MEMORY)
    writer.code()
    print("\n".join(writer.src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
