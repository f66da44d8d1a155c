"""Line-oriented text formats for instances, assignments, and grid graphs.

Point file: one point per line, `#` starts a comment.  1D points are one token
`a` or `a/b` (b > 0) and 2D points two, where an integer is ASCII digits after
an optional `-` (`model.integer`).  Assignment file: header `model
asym2d|sinktree1d`, an optional `sink <index>` line, then one `<from> <to>`
line per edge; indices are integers >= 0, positions in the sorted coordinate
order (1D) or file order (2D).  Grid-graph file: one `x y` integer pair per
line; edges are implicit between L1-distance-1 pairs.

A point file of one integer per line (a 1D instance at scale 1, as the solve
path writes it) is read whole, by one `int()` per line and one sort, when the
text is ASCII with no `+` or `_`, so `int()` reads only the grammar (0.26 s at
10⁶ points, where the rows take 0.78 s); any other point file goes through the
rows, which give the same results and errors.  An assignment file is read one
row at a time by one loop, whose index reader is chosen once per text: `int()`
when the text would also take the whole read and holds no `-` (as
format_assignment writes it), else `_parse_index`; a token `int()` refuses is
read again by `_parse_index`, so the message is the same.
"""

from __future__ import annotations

import sys
from itertools import chain
from math import gcd
from typing import Iterable, Iterator

from .errors import InputError, echo
from .model import ASYM2D, SINKTREE1D, Instance, Instance1D, Instance2D, ReceiverAssignment, integer


def _rows(text: str, lines: Iterable[str]) -> Iterator[list[str]]:
    """The non-empty lines of `text`, given as `lines`, each split on whitespace
    after any `#` comment is cut off; lazy, so one row is alive at a time."""
    if "#" in text:
        lines = (line.split("#", 1)[0] for line in lines)
    return filter(None, map(str.split, lines))


def _content_lines(text: str) -> list[list[str]]:
    return list(_rows(text, text.splitlines()))


def _int_reads_the_grammar(text: str) -> bool:  # int() also reads '+', '_' and Unicode digits
    return text.isascii() and "_" not in text and "+" not in text


def parse_points(text: str) -> Instance:
    """Parse a point file; the token count per line decides 1D vs 2D."""
    lines = text.splitlines()
    ints = None
    if _int_reads_the_grammar(text):
        try:  # a file of one integer per line, as format_points writes a 1D instance at scale 1
            ints = sorted(map(int, lines))
        except ValueError:
            pass
    if ints:
        return Instance1D(tuple(ints), 1)
    rows = list(_rows(text, lines))
    if not rows:
        raise InputError("point file contains no points")
    width = len(rows[0])
    if len(set(map(len, rows))) > 1:
        raise InputError("point file mixes 1D and 2D lines")
    if width == 1:
        return Instance1D.from_values([r[0] for r in rows])
    if width == 2:
        return Instance2D.from_values(rows)
    raise InputError(f"expected 1 or 2 tokens per point, got {width}")


def _token(x: int, scale: int) -> str:
    """x / scale in lowest terms, written `a` or `a/b` as Fraction writes it."""
    g = gcd(x, scale)
    return str(x // g) if g == scale else f"{x // g}/{scale // g}"


def format_points(instance: Instance) -> str:
    """The point file; refused when a coordinate has more digits than str() writes."""
    s = instance.scale
    try:
        if isinstance(instance, Instance1D) and s == 1:
            return ("%d\n" * instance.n) % instance.ints
        if isinstance(instance, Instance1D):
            body = "\n".join(_token(x, s) for x in instance.ints)
        else:
            body = "\n".join(f"{_token(x, s)} {_token(y, s)}" for x, y in instance.ints)
    except ValueError as exc:
        raise InputError(f"cannot write a coordinate of more than {sys.get_int_max_str_digits()} digits") from exc
    return body + "\n"


def parse_assignment(text: str) -> ReceiverAssignment:
    rows = _rows(text, text.splitlines())
    header = next(rows, None)
    if header is None:
        raise InputError("assignment file is empty")
    if header[0] != "model" or len(header) != 2:
        raise InputError("assignment file must start with `model <tag>`")
    model = header[1]
    if model not in (ASYM2D, SINKTREE1D):
        raise InputError(f"unknown model tag: {echo(model)}")
    sink = None
    row = next(rows, None)
    if row and row[0] == "sink":
        if len(row) != 2:
            raise InputError("malformed sink line")
        sink = _parse_index(row[1])
    elif row:
        rows = chain((row,), rows)
    # on ASCII text with no '+', '_' or '-', int() reads exactly the grammar's indices
    read = int if _int_reads_the_grammar(text) and "-" not in text else _parse_index
    receiver: dict[int, int] = {}
    for row in rows:
        if len(row) != 2:
            raise InputError(f"malformed edge line: {echo(' '.join(row))}")
        try:
            p, q = read(row[0]), read(row[1])
        except ValueError:  # raised again by _parse_index with its message
            p, q = _parse_index(row[0]), _parse_index(row[1])
        if p in receiver:
            raise InputError(f"point {echo(p)} has two receivers")
        receiver[p] = q
    return ReceiverAssignment(model=model, receiver=receiver, sink=sink)


def _parse_index(tok: str) -> int:
    try:
        value = integer(tok)
    except ValueError as exc:
        raise InputError(f"not an index: {echo(tok)}") from exc
    if value < 0:
        raise InputError(f"negative index: {echo(tok)}")
    return value


def format_assignment(assignment: ReceiverAssignment) -> str:
    """Canonical form: header, sink line, then edges sorted by source index."""
    head = f"model {assignment.model}\n"
    if assignment.sink is not None:
        head += f"sink {assignment.sink}\n"
    receiver = assignment.receiver
    sources = sorted(receiver)
    edges = [0] * (2 * len(sources))  # source, receiver, source, ...
    edges[::2] = sources
    edges[1::2] = map(receiver.__getitem__, sources)
    return head + ("%d %d\n" * len(sources)) % tuple(edges)


def parse_grid(text: str) -> list[tuple[int, int]]:
    rows = _content_lines(text)
    if not rows:
        raise InputError("grid file contains no vertices")
    vertices = []
    for row in rows:
        if len(row) != 2:
            raise InputError("grid vertices are `x y` integer pairs")
        try:
            vertices.append((integer(row[0]), integer(row[1])))
        except ValueError as exc:
            raise InputError(f"not an integer pair: {echo(' '.join(row))}") from exc
    if len(set(vertices)) != len(vertices):
        raise InputError("duplicate grid vertex")
    return vertices


def format_graph_dot(out_neighbors: list[list[int]]) -> str:
    """Export a directed graph in DOT format (for figures)."""
    lines = ["digraph communication {"]
    for p, nbrs in enumerate(out_neighbors):
        for q in nbrs:
            lines.append(f"  {p} -> {q};")
    lines.append("}")
    return "\n".join(lines) + "\n"
