"""Run ``analyze`` on every walk of the perfbench pool and summarise the results.

Reads the pool generator ``perfbench/gen.py`` (``walk_instance(n)`` for
every ``n`` below ``gen.WALK_POOL``) and runs ``pumpkit.driver.analyze``
on each walk with its instance's bound override.  It prints the kind
histogram, the branch histogram (the trail's ``engine:`` tag, or the
error raised), the histogram of the driver's case tags over all trail
entries (:func:`case_tag`) and a SHA-256 over every walk's kind, trail
and certificate.  It writes nothing under ``perfbench/``.

It also measures the decision tree's gap: for each ``no_shield`` walk it
searches the pairs ``(i, j)`` until ``tam.verify_pumpable_cert`` accepts
one, on the path ``analyze`` decided (the cut prefix of a canonical walk,
else the whole path).  It prints how many such walks have a pair, overall,
among the canonical walks and for each last case tag of the trail.  A
``no_shield`` walk with a pair is a certificate the tree missed; under an
override ``no_shield`` stays allowed, so the count is a measure, not a
failure of the walk.

    python tools/pool_scan.py                      # about a minute on 2 cores
    python tools/pool_scan.py --out scan.txt       # one line per walk

Two ``--out`` files, one from each of two checkouts, diff line by line,
so a change of decision shows up as the walks it moved.  The exit status
is 1 when ``analyze`` raised on any walk, the digest differs from
``POOL_DIGEST`` or the gap count differs from ``POOL_MISSED``, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "perfbench"))
sys.path.insert(0, os.path.join(REPO, "src"))

import gen  # noqa: E402
from pumpkit import driver, formats, tam  # noqa: E402

# SHA-256 over every walk's record.  Any change to a decision branch or to
# a certificate byte on a pool walk changes it, so it moves only with a
# deliberate change of output; such a change updates it here.
POOL_DIGEST = "2af68c9c45d2a09463ddbec5f65807f56d11e29776706cdef0187876d1f26ed6"
# ``no_shield`` walks with a pair the pumping verifier accepts: the walks the
# decision tree misses.  A change to the tree that closes part of the gap
# lowers it, and updates it here.
POOL_MISSED = 1983


def case_tag(entry: str) -> str:
    """The case a trail entry names, without its figures.

    The entry is cut at its first ``:``, and at its ``(`` when the
    parentheses hold a digit: ``engine:anchor-stall`` and
    ``equal-span-pair(cols 3,4)`` count as ``engine`` and
    ``equal-span-pair``, while ``flip-vertical(down spans)`` and
    ``flip-vertical(orient visible bank)`` stay two cases.
    """
    tag = entry.split(":", 1)[0]
    head, paren, rest = tag.partition("(")
    return head if paren and any(c.isdigit() for c in rest) else tag


def accepted_pair(sys_, p) -> tuple[int, int] | None:
    """The first pair ``(i, j)``, by ``j`` and then by ``i`` from ``j - 1``
    down, whose pumping ``tam.verify_pumpable_cert`` accepts on ``p``."""
    for j in range(1, len(p)):
        for i in range(j - 1, -1, -1):
            if tam.verify_pumpable_cert(sys_, tam.PumpingSpec(p, i, j)):
                return i, j
    return None


def scan_one(n: int) -> tuple[str, str, list[str], str, tuple[int, int] | None]:
    """``(kind, branch, trail, record, pair)`` of walk ``n``: ``record`` is one
    line of text, ``pair`` the :func:`accepted_pair` of a ``no_shield`` walk."""
    inst = gen.walk_instance(n)
    sys_, path = formats.parse_system(inst["text"])
    try:
        res = driver.analyze(sys_, path, inst["override"])
    except Exception as e:  # every failure is recorded, none stops the scan
        err = f"{type(e).__name__}: {e}"
        return "error", type(e).__name__, [], f"{n} error {err!r}", None
    branch = next((t[len("engine:"):] for t in res.trail if t.startswith("engine:")),
                  "-")
    pair = None
    if res.kind == "no_shield":
        if res.trail[0].startswith("canonical("):
            path = path.prefix(driver.canonicalize(sys_, path, inst["override"]).truncated_at)
        pair = accepted_pair(sys_, path)
    cert = "" if res.kind == "no_shield" else formats.emit_certificate(res)
    trail = " | ".join(res.trail)
    return res.kind, branch, res.trail, f"{n} {res.kind} [{trail}] {cert!r}", pair


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", help="write one line per walk to this file")
    args = ap.parse_args(argv)
    kinds, branches, cases = Counter(), Counter(), Counter()
    # no_shield walks, and those with an accepted pair, under the keys
    # "all", "canonical" and "last <case tag of the trail's last entry>".
    no_shield, with_pair = Counter(), Counter()
    digest = hashlib.sha256()
    errors = []
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        for n in range(gen.WALK_POOL):
            kind, branch, trail, record, pair = scan_one(n)
            kinds[kind] += 1
            branches[branch] += 1
            cases.update(case_tag(entry) for entry in trail)
            if kind == "no_shield":
                keys = ["all", "last " + case_tag(trail[-1])]
                if trail[0].startswith("canonical("):
                    keys.append("canonical")
                no_shield.update(keys)
                if pair is not None:
                    with_pair.update(keys)
            if kind == "error":
                errors.append(n)
            digest.update(record.encode() + b"\n")
            if out is not None:
                out.write(record + "\n")
    finally:
        if out is not None:
            out.close()
    print(f"walks: {gen.WALK_POOL}")
    print("kinds: " + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())))
    print("branches: " + ", ".join(f"{k} {v}" for k, v in sorted(branches.items())))
    print("cases: " + ", ".join(f"{k} {v}" for k, v in sorted(cases.items())))
    print(f"sha256: {digest.hexdigest()}")
    print("no_shield walks with a pair the verifier accepts: "
          f"{with_pair['all']} of {no_shield['all']}, "
          f"canonical {with_pair['canonical']} of {no_shield['canonical']}")
    print("by last case: " + ", ".join(f"{k[5:]} {with_pair[k]} of {no_shield[k]}"
                                       for k in sorted(no_shield) if k.startswith("last ")))
    status = 0
    if errors:
        print(f"analyze raised on {len(errors)} walks: {errors}")
        status = 1
    if digest.hexdigest() != POOL_DIGEST:
        print(f"sha256 differs from the pinned {POOL_DIGEST}")
        status = 1
    if with_pair["all"] != POOL_MISSED:
        print(f"{with_pair['all']} walks with a pair differs from the pinned {POOL_MISSED}")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
