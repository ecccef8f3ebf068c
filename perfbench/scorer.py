"""Line-protocol edge scorer for `ltpal mppe --scorer-cmd`, with counters.

Reads one request per line, {"a": [...], "b": [...]} with class-id lists,
and answers {"score": x} with their Jaccard overlap (two empty sets score
1).  Replies are kept by request line, so the scorer's own cost per
repeated request is small and steady.  It counts every request and every
distinct (a, b) pair and writes {"calls": n, "distinct": m} to the
--counts file when its input ends or when it is terminated, which is how
ltpal closes it.  The counts are measured outside ltpal, so they stay
comparable if ltpal starts caching scores.

    python3 perfbench/scorer.py --counts counts.json
"""

import argparse
import json
import os
import signal
import sys


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", required=True, help="where to write the request counts")
    args = parser.parse_args()
    calls = 0
    seen = set()

    def finish(*_):
        tmp = args.counts + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"calls": calls, "distinct": len(seen)}, handle)
        os.replace(tmp, args.counts)
        os._exit(0)

    signal.signal(signal.SIGTERM, finish)
    replies = {}  # request line -> reply bytes, so a repeated request costs a lookup
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        calls += 1
        reply = replies.get(line)
        if reply is None:
            request = json.loads(line)
            a, b = frozenset(request["a"]), frozenset(request["b"])
            seen.add((a, b))
            union = a | b
            score = len(a & b) / len(union) if union else 1.0
            reply = replies[line] = (json.dumps({"score": score}) + "\n").encode()
        out.write(reply)
        out.flush()
    finish()


if __name__ == "__main__":
    main()
