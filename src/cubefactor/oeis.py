"""OEIS b-file parsing, fetching with a disk cache, and sequence comparison.

b-files are the plain-text "index value" format; records keep the first
index as the offset. Offsets are never assumed: comparisons take an
explicit shift, and a shift scan discovers the alignment between a locally
generated sequence and a b-file whose initial terms follow a different
convention.

Importing the module loads no HTTP client: ``urllib.request`` and
``tempfile`` are imported by ``fetch_bfile`` only on a cache miss, the one
path that downloads and writes a cache entry.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

__all__ = [
    "SequenceRecord",
    "MatchReport",
    "BFileError",
    "FetchError",
    "parse_bfile",
    "render_bfile",
    "cache_dir",
    "fetch_bfile",
    "compare",
    "scan_shifts",
    "best_match",
]

CACHE_ENV = "CUBEFACTOR_CACHE"
# an OEIS id: "A" (optional) and one to six ASCII digits, zero-filled to six
_ID_PATTERN = re.compile(r"A?([0-9]{1,6})")
# a decimal integer as render_bfile and poly_to_json write it; int() alone
# would also take "1_0", "+5", " 5" and non-ASCII digits. The 4300 digits
# are Python's default int parsing limit, which the CLI lifts to print; they
# keep a b-file's parse cost linear in its size either way.
_INT = r"-?[0-9]{1,4300}"
_INT_PATTERN = re.compile(_INT)
# a b-file data line, stripped: two such integers separated by spaces and tabs
_LINE_PATTERN = re.compile(rf"({_INT})[ \t]+({_INT})")


class BFileError(ValueError):
    """Malformed b-file text (bad line or gap in the index column)."""


class FetchError(RuntimeError):
    """Network failure, non-200 response, or offline with a cold cache."""


@dataclass(frozen=True)
class SequenceRecord:
    id: str | None
    offset: int
    terms: tuple[int, ...]


def parse_bfile(text: str, id: str | None = None) -> SequenceRecord:
    """Parse b-file text: '#' comment lines, then "index value" data lines
    with consecutive indices. The offset is the first index seen.

    Lines end at a line feed (a carriage return before it is dropped) and
    fields are separated by spaces and tabs, the only separators b-files
    use; other Unicode line breaks and spaces separate nothing."""
    offset: int | None = None
    expected: int | None = None
    terms: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").strip(" \t")
        if not line or line.startswith("#"):
            continue
        match = _LINE_PATTERN.fullmatch(line)
        # only a line that fails the pattern is split, to tell its two faults apart
        if match is None and len(re.split("[ \t]+", line)) != 2:
            raise BFileError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            if match is None:
                raise ValueError
            index, value = int(match[1]), int(match[2])  # can still hit a lowered limit
        except ValueError:
            raise BFileError(f"line {lineno}: non-integer field in {raw!r}") from None
        if offset is None:
            offset = expected = index
        if index != expected:
            raise BFileError(f"line {lineno}: index {index}, expected {expected} (gap)")
        terms.append(value)
        expected = index + 1
    if offset is None:
        raise BFileError("no data lines found")
    return SequenceRecord(id, offset, tuple(terms))


def render_bfile(record: SequenceRecord) -> str:
    """Inverse of parse_bfile on the data lines."""
    return "".join(f"{record.offset + i} {t}\n" for i, t in enumerate(record.terms))


def cache_dir(override: str | os.PathLike | None = None) -> Path:
    """Cache directory: explicit override, then $CUBEFACTOR_CACHE, then
    ~/.cache/cubefactor."""
    if override is not None:
        return Path(override)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cubefactor"


def _normalize_id(id: str) -> str:
    match = _ID_PATTERN.fullmatch(id.strip().upper())
    if match is None:
        raise ValueError(f"not an OEIS id: {id!r}")
    return "A" + match.group(1).zfill(6)


def fetch_bfile(
    id: str,
    *,
    offline: bool = False,
    cache: str | os.PathLike | None = None,
) -> SequenceRecord:
    """b-file for an OEIS id, served from the disk cache when present.

    Cache entries never expire (b-files are effectively immutable) and are
    written atomically (temp file then rename). In offline mode a cold
    cache raises FetchError instead of touching the network; a download
    waits at most 30 s on the server. A cached file that does not parse
    raises BFileError naming its path.
    """
    oid = _normalize_id(id)
    directory = cache_dir(cache)
    path = directory / f"{oid}.txt"
    if path.exists():
        try:
            return parse_bfile(path.read_text(encoding="utf-8"), id=oid)
        except (BFileError, UnicodeDecodeError) as exc:
            raise BFileError(f"cached b-file {path} is malformed: {exc}") from None
    if offline:
        raise FetchError(f"offline mode and {oid} is not in the cache ({directory})")
    import tempfile
    import urllib.request

    url = f"https://oeis.org/{oid}/b{oid[1:]}.txt"
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            if response.status != 200:
                raise FetchError(f"GET {url} returned HTTP {response.status}")
            text = response.read().decode("utf-8")
    except FetchError:
        raise
    except Exception as exc:
        raise FetchError(f"GET {url} failed: {exc}") from exc
    record = parse_bfile(text, id=oid)  # validate before caching
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{oid}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return record


@dataclass(frozen=True)
class MatchReport:
    shift: int
    overlap: int
    matched: bool
    first_mismatch: tuple[int, int, int] | None  # (local index, local, remote)


def compare(local_terms: Sequence[int], remote: SequenceRecord, shift: int) -> MatchReport:
    """Compare local index i, the list position, against the remote term at
    index i + shift.

    Reports the overlap length and the first mismatch; an empty overlap is
    an error (there is nothing to compare).
    """
    lo = max(0, remote.offset - shift)
    hi = min(len(local_terms), remote.offset + len(remote.terms) - shift) - 1
    if lo > hi:
        raise ValueError(f"empty overlap at shift {shift}")
    first = None
    for i in range(lo, hi + 1):
        a = local_terms[i]
        b = remote.terms[i + shift - remote.offset]
        if a != b:
            first = (i, a, b)
            break
    return MatchReport(shift, hi - lo + 1, first is None, first)


def scan_shifts(local_terms: Sequence[int], remote: SequenceRecord) -> list[MatchReport]:
    """Compare at every shift in the window [-5, 5], skipping empty overlaps."""
    reports = []
    for shift in range(-5, 6):
        try:
            reports.append(compare(local_terms, remote, shift))
        except ValueError:
            continue
    return reports


def best_match(reports: Sequence[MatchReport]) -> MatchReport | None:
    """Full-overlap match with the longest overlap; ties take the smaller
    shift. None when no shift matched."""
    matched = [r for r in reports if r.matched]
    if not matched:
        return None
    return min(matched, key=lambda r: (-r.overlap, r.shift))
