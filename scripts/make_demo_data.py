#!/usr/bin/env python3
"""Write the bundled demo lexicon and parallel pairs as jsonl files.

Usage: python scripts/make_demo_data.py [--out DIR]

Produces DIR/lexicon.jsonl and DIR/pairs.jsonl ready for
`idiomatize ingest`.
"""

import argparse
import os

from idiomatize import save_lexicon, save_pairs
from idiomatize.corpus import write_text
from idiomatize.toydata import demo_annotated_ids, demo_lexicon, demo_pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_data", help="output directory")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    save_lexicon(os.path.join(args.out, "lexicon.jsonl"), demo_lexicon())
    save_pairs(os.path.join(args.out, "pairs.jsonl"), demo_pairs())
    write_text(os.path.join(args.out, "annotated.txt"), (idiom_id + "\n" for idiom_id in demo_annotated_ids()))
    print(f"wrote lexicon.jsonl, pairs.jsonl, annotated.txt under {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
