"""Immutable adjacency storage and the edge-list file format.

Graphs are simple and undirected with vertex ids 0..n-1. Adjacency lives in a
CSR layout: a flat neighbor array plus per-vertex offsets. Neighbor order is
the input order of the edge list, which is arbitrary but fixed, so i-th
neighbor queries are well defined and reproducible.
"""

from __future__ import annotations

import codecs
import math
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# The largest n whose source * n + target row keys fit int64.
MAX_VERTICES = math.isqrt(2**63 - 1)


class Graph:
    """Static simple undirected graph with ordered adjacency.

    Build via from_edges or load_edge_list rather than the constructor.
    Storage is CSR: v's neighbors, in stored order, are
    targets[offsets[v]:offsets[v + 1]]; the arrays are read-only. Vertices
    precede one another by (degree, id); this order drives the
    triangle-assignment logic downstream, so it is part of the public API.
    """

    __slots__ = (
        "n", "m", "degrees", "offsets", "targets", "_sorted_targets",
        "_degrees_view", "_offsets_view", "_sorted_view", "_edge_keys",
    )

    def __init__(
        self,
        n: int,
        m: int,
        degrees: np.ndarray,
        offsets: np.ndarray,
        targets: np.ndarray,
        sorted_targets: np.ndarray,
    ):
        self.n = n
        self.m = m
        self.degrees = degrees
        self.offsets = offsets
        self.targets = targets
        self._sorted_targets = sorted_targets
        for arr in (degrees, offsets, targets, sorted_targets):
            arr.setflags(write=False)
        # The scalar reads go through memoryviews: indexing one yields a
        # Python int, for a plain-int or numpy-integer index alike, at well
        # under half the cost of a numpy scalar index.
        self._degrees_view = memoryview(degrees)
        self._offsets_view = memoryview(offsets)
        self._sorted_view = memoryview(sorted_targets)
        self._edge_keys = None

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) integer pairs.

        A ValueError names an n over MAX_VERTICES or too large for the
        memory its per-vertex arrays need, or else the first pair with a
        non-integer id, an id outside [0, n), equal ends or an earlier pair's
        ends, in either orientation. Neighbor lists keep the order in
        which edges appear.
        """
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} is over {MAX_VERTICES}, the most int64 row keys allow")
        arr = np.asarray(edges)
        m = len(arr)
        if m and arr.shape != (m, 2):
            raise ValueError("edges must be (u, v) pairs")
        if m and arr.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be integers, got {arr.dtype}")
        flat = arr.astype(np.int64, copy=False).ravel()
        if m and (flat.min() < 0 or flat.max() >= n):
            k, reason = _first_bad_edge(n, flat)
            raise ValueError(f"edge {k}: {reason}")
        try:
            degrees = np.bincount(flat, minlength=n).astype(np.int64, copy=False)
            offsets = np.zeros(n + 1, dtype=np.int64)
            row_base = np.arange(n, dtype=np.int64)
        except MemoryError:
            raise ValueError(f"vertex count {n} needs more memory than is available") from None
        np.cumsum(degrees, out=offsets[1:])
        # Slot 2k holds u_k and slot 2k+1 holds v_k. A stable sort by endpoint
        # lists each vertex's incidences in edge order, and the partner of
        # slot j is slot j ^ 1.
        targets = flat[_radix_argsort(flat, n) ^ 1]
        # The rows, each sorted, by one sort of source * n + target keys. Keys
        # stay below n * n, within int64 for n <= MAX_VERTICES, the bound that
        # _check_invariants' (degree, id) key also rests on. A repeated edge
        # or a self loop repeats a key.
        row_base *= n
        row_base = np.repeat(row_base, degrees)
        sorted_targets = row_base + targets
        sorted_targets.sort()
        if (sorted_targets[1:] == sorted_targets[:-1]).any():
            k, reason = _first_bad_edge(n, flat)
            raise ValueError(f"edge {k}: {reason}")
        sorted_targets -= row_base
        g = cls(n, m, degrees, offsets, targets, sorted_targets)
        try:
            # The checks allocate n-sized arrays of their own.
            g._check_invariants()
        except MemoryError:
            raise ValueError(f"vertex count {n} needs more memory than is available") from None
        return g

    def _check_invariants(self) -> None:
        # Degree sum must equal twice the edge count, and no vertex may have
        # more higher-order neighbors than sqrt(2m) allows (a structural fact
        # about the (degree, id) order on simple graphs). Real exceptions, so
        # python -O cannot strip the checks.
        if int(self.degrees.sum()) != 2 * self.m:
            raise RuntimeError("degree sum is not twice the edge count")
        if self.m == 0:
            return
        n = self.n
        key = self.degrees * np.int64(n) + np.arange(n, dtype=np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        succ_mask = key[self.targets] > key[src]
        succ_counts = np.bincount(src[succ_mask], minlength=n)
        bound = math.isqrt(2 * self.m)
        if int(succ_counts.max()) > bound:
            raise RuntimeError("successor bound violated")

    # -- queries ----------------------------------------------------------

    def degree(self, v: int) -> int:
        return self._degrees_view[v]

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of v's neighbor list in stored order."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test by binary search on the lower-degree endpoint."""
        degrees = self._degrees_view
        if degrees[u] > degrees[v]:
            u, v = v, u
        lo, hi = self._offsets_view[u], self._offsets_view[u + 1]
        row = self._sorted_view
        i = bisect_left(row, v, lo, hi)
        # bool(): a numpy-integer v makes the comparison a numpy bool.
        return bool(i < hi and row[i] == v)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """has_edge for each pair (us[k], vs[k]), by one searchsorted.

        The keys source * n + target of the sorted rows are ascending over
        all 2m slots (within int64 for n <= MAX_VERTICES). They take 16
        bytes per edge, so they are built on the first call, which the
        estimator makes and the exact counter does not.
        """
        if self._edge_keys is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
            rows *= self.n
            rows += self._sorted_targets
            rows.setflags(write=False)
            self._edge_keys = rows
        edge_keys = self._edge_keys
        keys = np.asarray(us, dtype=np.int64) * self.n + np.asarray(vs, dtype=np.int64)
        at = np.searchsorted(edge_keys, keys)
        found = at < len(edge_keys)
        found[found] = edge_keys[at[found]] == keys[found]
        return found

    def precedes(self, u: int, v: int) -> bool:
        """True when u comes before v in the (degree, id) vertex order."""
        du, dv = self._degrees_view[u], self._degrees_view[v]
        return bool(du < dv or (du == dv and u < v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (min id, max id)."""
        for v in range(self.n):
            for w in self.neighbors(v):
                if v < w:
                    yield v, int(w)


def _radix_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for int64 keys in [0, bound).

    LSD radix passes over 16-bit digits, low digit first. Each pass is a
    stable argsort of a uint16 array, which numpy runs as a linear-time radix
    sort; a stable argsort of the int64 keys is a comparison sort, about five
    times slower on 1e7 keys.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _first_bad_edge(n: int, flat: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first pair (flat holds them end to end) with a
    negative id, an id of n or more, equal ends, or an earlier pair's ends;
    None when there is no such pair."""
    lo, hi = np.minimum(flat[0::2], flat[1::2]), np.maximum(flat[0::2], flat[1::2])
    _, first = np.unique(np.column_stack((lo, hi)), axis=0, return_index=True)
    repeat = ~np.isin(np.arange(len(lo)), first)
    bad = (lo < 0) | (hi >= n) | (lo == hi) | repeat
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    if lo[k] < 0:
        return k, "negative vertex id"
    if hi[k] >= n:
        return k, "vertex id out of range"
    if lo[k] == hi[k]:
        return k, f"self loop at vertex {lo[k]}"
    return k, f"duplicate edge ({lo[k]}, {hi[k]})"


# Text mode reads and decodes a file in blocks of this many bytes. The loader
# decodes the same blocks, so a UnicodeDecodeError reads as text mode's.
_TEXT_BLOCK = 8192

# Bytes of edge-list text tokenized at a time, a whole number of text blocks.
# Chunks end at a line break, so no line is split between two chunks.
_CHUNK_BYTES = 32 * _TEXT_BLOCK

# The most digits a token on the vectorized path may have: 10**18 - 1 is
# below 2**63, so such a token converts to int64 without overflow.
_MAX_DIGITS = 18

_INT64 = range(-(2**63), 2**63)


def load_edge_list(source: str | Path | Iterable[str]) -> Graph:
    """Parse an edge-list file, or an iterable of its lines, into a Graph.

    Format: whitespace-separated "u v" pairs, one per line. Lines starting
    with '#' and blank lines are skipped. The first data line may be a header
    "n <count>" declaring the vertex count (needed when trailing vertices are
    isolated). Errors name the earliest faulty line (1-based), or else a header
    smaller than the largest id. A file is read as UTF-8 with the line breaks
    of text mode (\\n, \\r\\n, \\r); element i of an iterable is line i + 1.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return _parse_chunks(_file_chunks(fh))
    return _parse_chunks(_line_chunks(source))


def _file_chunks(fh) -> Iterator[tuple[bytes, np.ndarray]]:
    """(text, bounds) chunks of a binary file: line i of a chunk is
    text[bounds[i]:bounds[i + 1]], its line break included."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    carry = b""
    while True:
        block = fh.read(_CHUNK_BYTES)
        # Text mode's UnicodeDecodeError, if any. It is raised before the
        # block's lines are tokenized, so it wins over a format error on an
        # earlier line, where text mode might have reached that line first.
        for i in range(0, len(block), _TEXT_BLOCK):
            decoder.decode(block[i : i + _TEXT_BLOCK])
        if not block:
            decoder.decode(b"", final=True)
        data = carry + block
        if not data:
            return
        arr = np.frombuffer(data, dtype=np.uint8)
        cr, lf = arr == ord("\r"), arr == ord("\n")
        breaks = cr | lf
        breaks[:-1] &= ~(cr[:-1] & lf[1:])
        if not block:
            breaks[-1] = True  # the file's end ends its last line
        elif cr[-1]:
            breaks[-1] = False  # it may pair with a \n in the next block
        ends = np.flatnonzero(breaks) + 1
        if not len(ends):
            carry = data
            continue
        cut = int(ends[-1])
        yield data[:cut], np.concatenate(([0], ends))
        carry = data[cut:]


def _line_chunks(lines: Iterable[str]) -> Iterator[tuple[bytes, np.ndarray]]:
    """_file_chunks for an iterable of lines: each element is encoded (lone
    surrogates kept) and given a trailing \\n, which str.split ignores."""
    batch, size = [], 0
    for line in lines:
        raw = line.encode("utf-8", "surrogatepass")
        batch.append(raw)
        size += len(raw) + 1
        if size >= _CHUNK_BYTES:
            yield _joined(batch)
            batch, size = [], 0
    if batch:
        yield _joined(batch)


def _joined(batch: list[bytes]) -> tuple[bytes, np.ndarray]:
    bounds = np.zeros(len(batch) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, batch), dtype=np.int64, count=len(batch)) + 1, out=bounds[1:])
    return b"\n".join(batch) + b"\n", bounds


def _parse_chunks(chunks: Iterable[tuple[bytes, np.ndarray]]) -> Graph:
    # Tokenize only. Graph.from_edges checks the pairs read before the first
    # line that does not tokenize, and line_nos maps a pair it rejects back.
    flat, line_nos, declared_n, header_line, error = _tokenize(chunks)
    n = max(int(flat.max(initial=-1)) + 1, declared_n or 0)
    try:
        graph = Graph.from_edges(n, flat.reshape(-1, 2))
    except ValueError as exc:
        bad = _first_bad_edge(n, flat)
        if bad is None:
            # No pair is at fault, so n is; blame the line that set it.
            line = header_line if declared_n == n else line_nos[np.argmax(flat) // 2]
            raise GraphFormatError(int(line), str(exc)) from None
        k, reason = bad
        raise GraphFormatError(int(line_nos[k]), reason) from None
    if error is not None:
        raise error
    if declared_n is not None and declared_n < n:
        raise GraphFormatError(header_line, f"header n={declared_n} smaller than max id {n - 1}")
    return graph


def _tokenize(chunks: Iterable[tuple[bytes, np.ndarray]]):
    """Pairs end to end, their line numbers, the header's count and line (or
    None), and the first line's GraphFormatError (or None); reading stops at
    that line."""
    pair_parts = [np.zeros(0, dtype=np.int64)]
    line_parts = [np.zeros(0, dtype=np.int64)]
    pairs_read = 0
    declared_n = header_line = error = None
    first_line = 1
    for text, bounds in chunks:
        arr = np.frombuffer(text, dtype=np.uint8)
        rows, vals, irregular = _tokenize_regular(arr, bounds)
        # Lines the vectorized rule leaves open go through _parse_line, in
        # line order, since a header counts only before the first pair.
        extra_rows, extra_vals = [], []
        for i in irregular.tolist():
            line_no = first_line + i
            header_ok = declared_n is None and not (pairs_read or extra_rows or (len(rows) and rows[0] < i))
            raw = text[bounds[i] : bounds[i + 1]].decode("utf-8", "surrogatepass")
            try:
                got = _parse_line(line_no, raw, header_ok)
            except GraphFormatError as exc:
                error = exc
                keep = int(np.searchsorted(rows, i))
                rows, vals = rows[:keep], vals[: 2 * keep]
                break
            if type(got) is tuple:
                extra_rows.append(i)
                extra_vals.extend(got)
            elif got is not None:
                declared_n, header_line = got, line_no
        if extra_rows:
            rows = np.concatenate((rows, extra_rows))
            order = np.argsort(rows, kind="stable")
            rows = rows[order]
            vals = np.concatenate((vals, extra_vals)).reshape(-1, 2)[order].ravel()
        pair_parts.append(vals)
        line_parts.append(rows + first_line)
        pairs_read += len(rows)
        if error is not None:
            break
        first_line += len(bounds) - 1
    return np.concatenate(pair_parts), np.concatenate(line_parts), declared_n, header_line, error


def _tokenize_regular(arr: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize a chunk's regular lines at once.

    A line is regular when it has exactly two tokens, each of at most
    _MAX_DIGITS ASCII digits, between ASCII whitespace (space, \\t, \\n,
    \\v, \\f, \\r); str.split and int read such a line the same way.
    Returns the regular lines' indices, their pairs end to end as int64, and
    the indices of the lines that are neither regular nor skipped (blank, or
    a first token starting with '#').
    """
    space = (arr == ord(" ")) | ((arr >= ord("\t")) & (arr <= ord("\r")))
    step = np.diff((~space).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    # Each line ends in whitespace or at the chunk's end, so no token
    # crosses a line bound; counts before each bound give per-line counts.
    before = np.searchsorted(starts, bounds)
    first_tok, n_tok = before[:-1], np.diff(before)
    odd = np.flatnonzero(~space & ((arr < ord("0")) | (arr > ord("9"))))
    has_odd = np.diff(np.searchsorted(odd, bounds)) > 0
    has_long = np.diff(np.searchsorted(starts[ends - starts > _MAX_DIGITS], bounds)) > 0
    rows = np.flatnonzero((n_tok == 2) & ~has_odd & ~has_long)
    tok = (first_tok[rows, None] + np.arange(2)).ravel()
    vals = _digit_values(arr, starts[tok], ends[tok])
    open_rows = np.flatnonzero((n_tok != 0) & ((n_tok != 2) | has_odd | has_long))
    irregular = open_rows[arr[starts[first_tok[open_rows]]] != ord("#")]
    return rows, vals, irregular


def _digit_values(arr: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """int64 values of the ASCII digit runs arr[starts[i]:ends[i]], one digit
    place per step from the widest run's leading place."""
    vals = np.zeros(len(starts), dtype=np.int64)
    for place in range(int((ends - starts).max(initial=0)), 0, -1):
        pos = ends - place
        digit = arr[np.maximum(pos, 0)] - ord("0")
        vals *= 10
        vals += np.where(pos >= starts, digit, 0)
    return vals


def _parse_line(line_no: int, raw: str, header_ok: bool) -> tuple[int, int] | int | None:
    """One line by the per-line rule: None to skip it, the count of an
    "n <count>" header (read only when header_ok), or a (u, v) pair."""
    parts = raw.split()
    if not parts or parts[0][0] == "#":
        return None
    if parts[0] == "n" and header_ok:
        if len(parts) != 2:
            raise GraphFormatError(line_no, "header must be 'n <count>'")
        try:
            count = int(parts[1])
        except ValueError:
            raise GraphFormatError(line_no, f"bad vertex count {parts[1]!r}")
        if count < 0:
            raise GraphFormatError(line_no, "vertex count must be nonnegative")
        return count
    if len(parts) != 2:
        raise GraphFormatError(line_no, f"expected 'u v', got {raw.strip()!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(line_no, f"non-integer vertex id in {raw.strip()!r}")
    if u not in _INT64 or v not in _INT64:
        raise GraphFormatError(line_no, f"vertex id outside the int64 range in {raw.strip()!r}")
    return u, v


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph, with its "n <count>" header, in the format load_edge_list reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {graph.n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in graph.edges())
