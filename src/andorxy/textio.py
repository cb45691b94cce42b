"""Plain-text graph and solution files.

Graph files start with a header line (``andor`` or ``xy``), optionally
followed by a ``zero-weights`` directive, then vertex lines, edge lines,
and a final source line::

    andor
    v s and
    v a or
    e s a 2
    s s

x-y files use ``v <id> <x> <y>`` vertex lines.  ``#`` starts a comment,
blank lines are ignored, and vertices must be declared before any edge
mentions them.  Serialization is canonical: vertices sorted by id, edges
sorted by (tail, head), source line last.

Solution files hold ``e <tail> <head>`` lines, one chosen edge per line.
"""

from __future__ import annotations

import re

from .graphs import (
    AND,
    OR,
    AndOrGraph,
    Edge,
    SolutionSubgraph,
    XYGraph,
    _finish_index,
    validate_andor,
    validate_xy,
)

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class GraphFormatError(ValueError):
    """A syntax or structural problem in a text-format file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)


def _significant_lines(text: str):
    """Yield (lineno, tokens, comment-free body) for non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0] if "#" in raw else raw
        tokens = body.split()
        if tokens:
            yield lineno, tokens, body


def _column(body: str, tokens: list[str]) -> int:
    """1-based column of a line's first token."""
    return body.index(tokens[0]) + 1


def _check_id(tok: str, lineno: int) -> str:
    if not _ID_RE.match(tok):
        raise GraphFormatError(f"bad vertex id {tok!r}", lineno)
    return tok


def _check_uint(tok: str, what: str, lineno: int) -> int:
    if not (tok.isdecimal() and tok.isascii()):  # int() also reads digits such as '٣'
        raise GraphFormatError(f"bad {what} {tok!r}, expected a nonnegative integer", lineno)
    return int(tok)


def parse_graph(text: str) -> AndOrGraph | XYGraph:
    """Parse a graph file; the header decides the returned type.

    Raises GraphFormatError with a line number on syntax problems,
    duplicate declarations, undeclared endpoints, or a missing/duplicate
    source line, and with the violation list when the described graph
    fails validation.

    Vertex i is the i-th declared vertex, and each edge line adds its
    (head, weight) to the integer adjacency as it is read.  When the vertex
    lines come in increasing id order, as in every canonical file, that
    numbering is the index's own: ``_finish_index`` completes it, and
    validation reads it.  Otherwise validation indexes the graph's dicts.
    """
    kind: str | None = None
    zero_ok = False
    pos: dict[str, int] = {}  # vertex id -> its declaration position
    labs: list = []
    adj: list[list[tuple[int, int]]] = []
    indeg: list[int] = []
    edges: dict[Edge, int] = {}
    source: str | None = None
    seen_body = False
    last = ""  # the last declared id while ids increase, None once they do not

    for lineno, toks, body in _significant_lines(text):
        if kind is None:
            if toks == ["andor"] or toks == ["xy"]:
                kind = toks[0]
                continue
            raise GraphFormatError(
                f"expected header 'andor' or 'xy', got {' '.join(toks)!r}", lineno,
                _column(body, toks)
            )
        if source is not None:
            raise GraphFormatError("content after the source line", lineno)
        tag = toks[0]
        if tag == "e":
            seen_body = True
            if len(toks) != 4:
                raise GraphFormatError("edge line needs: e <tail> <head> <weight>", lineno)
            _, t, h, wtok = toks
            try:
                ti, hi = pos[t], pos[h]
            except KeyError:
                end = h if t in pos else t
                raise GraphFormatError(f"edge references undeclared vertex {end}", lineno) from None
            w = _check_uint(wtok, "weight", lineno)
            if (t, h) in edges:
                raise GraphFormatError(f"duplicate edge ({t}, {h})", lineno)
            edges[(t, h)] = w
            adj[ti].append((hi, w))
            indeg[hi] += 1
        elif tag == "v":
            seen_body = True
            if kind == "andor":
                if len(toks) != 3:
                    raise GraphFormatError("vertex line needs: v <id> <and|or>", lineno)
                vid = _check_id(toks[1], lineno)
                if toks[2] not in (AND, OR):
                    raise GraphFormatError(f"bad label {toks[2]!r}, expected and|or", lineno)
                lab = toks[2]
            else:
                if len(toks) != 4:
                    raise GraphFormatError("vertex line needs: v <id> <x> <y>", lineno)
                vid = _check_id(toks[1], lineno)
                lab = (
                    _check_uint(toks[2], "x value", lineno),
                    _check_uint(toks[3], "y value", lineno),
                )
            if vid in pos:
                raise GraphFormatError(f"duplicate vertex {vid}", lineno)
            if last is not None:
                last = vid if vid > last else None
            pos[vid] = len(labs)
            labs.append(lab)
            adj.append([])
            indeg.append(0)
        elif tag == "s":
            if len(toks) != 2:
                raise GraphFormatError("source line needs: s <id>", lineno)
            if toks[1] not in pos:
                raise GraphFormatError(f"source {toks[1]} is not a declared vertex", lineno)
            source = toks[1]
        elif tag == "zero-weights":
            if seen_body:
                raise GraphFormatError("zero-weights directive must precede vertex lines", lineno)
            if zero_ok:
                raise GraphFormatError("duplicate zero-weights directive", lineno)
            zero_ok = True
        else:
            raise GraphFormatError(f"unknown line tag {tag!r}", lineno, _column(body, toks))

    if kind is None:
        raise GraphFormatError("empty input, expected a header line")
    if source is None:
        raise GraphFormatError("missing source line")

    names = list(pos)
    g = (AndOrGraph if kind == "andor" else XYGraph)(dict(zip(names, labs)), edges, source,
                                                     zero_ok)
    if last is not None:
        vars(g)["index"] = _finish_index(g, names, labs, adj, pos[source], indeg)
    rep = validate_andor(g) if kind == "andor" else validate_xy(g)
    if not rep.ok:
        raise GraphFormatError("invalid graph: " + "; ".join(rep.violations))
    return g


def serialize_graph(g: AndOrGraph | XYGraph) -> str:
    """Canonical text form; parse(serialize(g)) reproduces g exactly."""
    lines = ["xy" if isinstance(g, XYGraph) else "andor"]
    if g.zero_weights_allowed:
        lines.append("zero-weights")
    for v in sorted(g.labels):
        lab = g.labels[v]
        if isinstance(lab, tuple):
            lines.append(f"v {v} {lab[0]} {lab[1]}")
        else:
            lines.append(f"v {v} {lab}")
    for (t, h) in sorted(g.edges):
        lines.append(f"e {t} {h} {g.edges[(t, h)]}")
    lines.append(f"s {g.source}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> SolutionSubgraph:
    """Parse a solution file: ``e <tail> <head>`` lines; empty input is the empty solution."""
    edges: set[Edge] = set()
    for lineno, toks, body in _significant_lines(text):
        if toks[0] != "e" or len(toks) != 3:
            raise GraphFormatError("solution line needs: e <tail> <head>", lineno,
                                   _column(body, toks))
        e = (toks[1], toks[2])
        if e in edges:
            raise GraphFormatError(f"duplicate solution edge ({e[0]}, {e[1]})", lineno)
        edges.add(e)
    return SolutionSubgraph(frozenset(edges))


def serialize_solution(h: SolutionSubgraph) -> str:
    lines = [f"e {t} {hd}" for t, hd in sorted(h.edges)]
    return "\n".join(lines) + ("\n" if lines else "")
