"""Immutable adjacency storage and the edge-list file format.

Graphs are simple and undirected with vertex ids 0..n-1. Adjacency lives in a
CSR layout: a flat neighbor array plus per-vertex offsets. Each row lists its
neighbors by ascending id, a fixed order that depends on the graph alone, so
i-th neighbor queries are well defined and reproducible whatever order the
edges came in.
"""

from __future__ import annotations

import codecs
import math
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


def precedes_by_degree(du, u, dv, v):
    """Whether vertex u, of degree du, comes before vertex v, of degree dv,
    in the (degree, id) vertex order. Works elementwise on arrays as well as
    on scalars; Graph.precedes and heavy.edge_hits both order by it."""
    return (du < dv) | ((du == dv) & (u < v))


class Graph:
    """Static simple undirected graph with ordered adjacency.

    Build via from_edges or load_edge_list rather than the constructor.
    Storage is CSR: v's neighbors, by ascending id, are
    targets[offsets[v]:offsets[v + 1]], and slot s holds the key
    source * n + targets[s], so the keys ascend over all 2m slots; the arrays
    are read-only. Vertices precede one another by (degree, id); this order
    drives the triangle-assignment logic downstream, so it is part of the
    public API: precedes_by_degree defines it.
    """

    __slots__ = ("n", "m", "degrees", "offsets", "targets", "_keys")

    def __init__(
        self,
        n: int,
        m: int,
        degrees: np.ndarray,
        offsets: np.ndarray,
        targets: np.ndarray,
        keys: np.ndarray,
    ):
        self.n = n
        self.m = m
        self.degrees = degrees
        self.offsets = offsets
        self.targets = targets
        self._keys = keys
        for arr in (degrees, offsets, targets, keys):
            arr.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) integer pairs, in any order.

        A ValueError names a negative n, an n over MAX_VERTICES or too large
        for the memory its per-vertex arrays need, an edge count too large
        for the memory of its 2m keys, or else the first pair with a
        non-integer id, an id outside [0, n), equal ends or an earlier pair's
        ends, in either orientation. The graph does not depend on the pairs'
        order or on which end comes first.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
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
        except MemoryError:
            raise ValueError(f"vertex count {n} needs more memory than is available") from None
        np.cumsum(degrees, out=offsets[1:])
        try:
            # Both directions of each pair as source * n + target keys, below
            # n * n, within int64 for n <= MAX_VERTICES, the bound that
            # _check_invariants' (degree, id) key also rests on. Sorted, they
            # list the rows in turn, each by target.
            keys = flat * n
            keys.reshape(-1, 2)[:] += flat.reshape(-1, 2)[:, ::-1]
            keys.sort()
            # A repeated edge or a self loop repeats a key.
            repeats = (keys[1:] == keys[:-1]).any()
            targets = keys % n
        except MemoryError:
            raise ValueError(f"edge count {m} needs more memory than is available") from None
        if repeats:
            k, reason = _first_bad_edge(n, flat)
            raise ValueError(f"edge {k}: {reason}")
        g = cls(n, m, degrees, offsets, targets, keys)
        try:
            # The successor check masks the n degrees, an n-sized array.
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
        # A row's successors are among its degree-many slots, so only a row
        # longer than the bound can break it; as the degrees sum to 2m, fewer
        # than sqrt(2m) rows are. Only their slots are read.
        bound = math.isqrt(2 * self.m)
        rows = np.flatnonzero(self.degrees > bound)
        lens = self.degrees[rows]
        firsts = np.cumsum(lens) - lens
        src = np.repeat(rows, lens)
        tgt = self.targets[np.arange(len(src)) + np.repeat(self.offsets[rows] - firsts, lens)]
        d_src, d_tgt = self.degrees[src], self.degrees[tgt]
        succ = (d_tgt > d_src) | ((d_tgt == d_src) & (tgt > src))
        if int(np.add.reduceat(succ, firsts, dtype=np.int64).max(initial=0)) > bound:
            raise RuntimeError("successor bound violated")

    # -- queries ----------------------------------------------------------

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of v's neighbor list, by ascending id."""
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test by binary search in the lower-degree endpoint's
        row. It shares no code with edge_slots, so tests can use it as the
        adjacency reference."""
        if self.degrees[u] > self.degrees[v]:
            u, v = v, u
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def edge_slots(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The slot of vs[k] in us[k]'s row, for each k, or -1 where
        (us[k], vs[k]) is no edge: the position of the key us[k] * n + vs[k]
        among the graph's ascending keys, by one searchsorted."""
        keys = np.asarray(us, dtype=np.int64) * self.n + np.asarray(vs, dtype=np.int64)
        edge_keys = self._keys
        if not len(edge_keys):
            return np.full(keys.shape, -1, dtype=np.int64)
        # Searching in key order walks edge_keys forward, with far fewer
        # cache misses than a search in the callers' random order.
        order = np.argsort(keys)
        at = np.empty_like(order)
        at[order] = np.searchsorted(edge_keys, keys[order])
        np.minimum(at, len(edge_keys) - 1, out=at)
        return np.where(edge_keys[at] == keys, at, -1)

    def slot_sources(self, slots: np.ndarray) -> np.ndarray:
        """The vertex whose row holds slots[k], for each k (every slot in
        0..2m-1): the source of the key there, by one gather and one
        division, with no search of the offsets. A uniform slot's source is
        a vertex drawn with probability proportional to its degree."""
        return self._keys[slots] // self.n

    def precedes(self, u: int, v: int) -> bool:
        """True when u comes before v in the (degree, id) vertex order."""
        return bool(precedes_by_degree(self.degrees[u], u, self.degrees[v], v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once as (min id, max id), in ascending order:
        the slots whose source is below their target."""
        src = self._keys // self.n
        up = src < self.targets
        return zip(src[up].tolist(), self.targets[up].tolist())


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
        if str(exc).startswith("edge count"):
            raise  # out of memory for the edges' keys, which no one line sets
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
    # Token bounds are where a byte's class differs from the one before;
    # the chunk reads as bounded by whitespace, so starts and ends alternate.
    flips = np.flatnonzero(np.diff(~space, prepend=False, append=False))
    starts, ends = flips[0::2], flips[1::2]
    # Each line ends in whitespace or at the chunk's end, so no token
    # crosses a line bound; counts before each bound give per-line counts.
    before = np.searchsorted(starts, bounds)
    first_tok, n_tok = before[:-1], np.diff(before)
    # A line is open, for the per-line rule, unless it has two tokens, no
    # non-digit byte and no token over _MAX_DIGITS; most chunks have no such
    # byte or token, and skip the lookup.
    open_ = n_tok != 2
    odd = np.flatnonzero(~space & ((arr < ord("0")) | (arr > ord("9"))))
    for marks in (odd, starts[ends - starts > _MAX_DIGITS]):
        if len(marks):
            open_ |= np.diff(np.searchsorted(marks, bounds)) > 0
    rows = np.flatnonzero(~open_)
    tok = np.empty(2 * len(rows), dtype=np.int64)
    tok[0::2] = first_tok[rows]
    tok[1::2] = tok[0::2] + 1
    vals = _digit_values(arr, starts[tok], ends[tok])
    open_rows = np.flatnonzero(open_ & (n_tok != 0))
    irregular = open_rows[arr[starts[first_tok[open_rows]]] != ord("#")]
    return rows, vals, irregular


# _DIGIT_MASKS[k] keeps the low nibble of the top k bytes of a little-endian
# word: the values of the last k digits of a run that ends with the word.
_DIGIT_MASKS = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], np.uint64) & 0x0F0F0F0F0F0F0F0F


def _digit_values(arr: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """int64 values of the ASCII digit runs arr[starts[i]:ends[i]], each of at
    most _MAX_DIGITS digits, 8 digits at a time: the 8 bytes before a run's
    end, read as one little-endian word (an unaligned <u8 view), hold its last
    8 digits, the first in the low byte. A per-length mask keeps each digit's
    low nibble and clears the bytes before the run; three multiply-shift-mask
    steps (SWAR: no sum overflows its lane) join neighboring digits, pairs and
    fours into the word's 8-digit value. A run of over 8 or 16 digits adds the
    words before, times 10**8 and 10**16."""
    padded = np.zeros(len(arr) + 8, dtype=np.uint8)
    padded[8:] = arr
    # words[i] is the 8 bytes before arr[i].
    words = np.ndarray((len(arr) + 1,), dtype="<u8", buffer=padded, strides=(1,))
    lens = ends - starts
    vals = _eight_digits(words, ends, lens)
    for place in (8, 16):
        at = np.flatnonzero(lens > place)
        vals[at] += _eight_digits(words, ends[at] - place, lens[at] - place) * 10**place
    return vals.view(np.int64)


def _eight_digits(words: np.ndarray, ends: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """uint64 values of the last min(lens[i], 8) digits before ends[i]."""
    w = words[ends]
    w &= _DIGIT_MASKS.take(lens, mode="clip")  # a run of over 8 keeps all 8
    for shift, keep in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0x00000000FFFFFFFF)):
        # Lane i (shift // 8 digits) becomes 10**(shift // 8) * lane i + lane i + 1.
        w *= (10 ** (shift // 8) << shift) + 1
        w >>= shift
        w &= keep
    return w


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
