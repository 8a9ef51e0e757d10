"""One generator-count operation: the number of minimal generators of the
ideal of (k+1)-minors of the generic symmetric n-by-n matrix, next to the
rank of the first syzygy module of the closed form.

    PYTHONPATH=src python3 perfbench/gencount.py N K
"""

import json
import sys

from symsyz.resolution import jpw_closed_form, minor_generators


def main(argv: list[str]) -> int:
    n, k = (int(x) for x in argv)
    print(json.dumps({
        "n": n,
        "k": k,
        "generators": len(minor_generators(n, k)),
        "f1": jpw_closed_form(n, k).entries.get((1, k + 1), 0),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
