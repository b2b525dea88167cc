#!/usr/bin/env python3
# Cross-checking generated sequences against OEIS b-files. This demo stays
# offline: it writes a b-file fixture into a temporary cache and lets the
# shift scan discover the alignment. With network access the same call
# fetches https://oeis.org/A000931/b000931.txt and caches it on disk.

import tempfile
from pathlib import Path

from cubefactor import best_match, fetch_bfile, padovan, scan_shifts

with tempfile.TemporaryDirectory() as tmp:
    # A000931 uses the seed a(0)=1, a(1)=a(2)=0 and the same recurrence,
    # so its terms are the locally generated ones shifted by five places.
    terms = [1, 0, 0]
    while len(terms) < 140:
        terms.append(terms[-2] + terms[-3])
    Path(tmp, "A000931.txt").write_text(
        "".join(f"{i} {t}\n" for i, t in enumerate(terms)), encoding="utf-8"
    )

    record = fetch_bfile("A000931", offline=True, cache=tmp)
    print(f"{record.id}: offset {record.offset}, {len(record.terms)} terms cached")

    local = [padovan(n) for n in range(120)]
    reports = scan_shifts(local, record)
    for r in reports:
        mark = "match" if r.matched else f"mismatch at index {r.first_mismatch[0]}"
        print(f"  shift {r.shift:+d}: {mark} (overlap {r.overlap})")

    best = best_match(reports)
    print(f"alignment discovered: local index n corresponds to {record.id}(n{best.shift:+d})")
