"""Line-oriented text formats for instances, assignments, and grid graphs.

Point file: one point per line, `#` starts a comment.  1D points are a single
rational token (`a` or `a/b`), 2D points are two tokens.  Assignment file:
header `model asym2d|sinktree1d`, an optional `sink <index>` line, then one
`<from-index> <to-index>` line per edge.  Indices are 0-based positions in the
sorted coordinate order (1D) or file order (2D).  Grid-graph file: one `x y`
integer pair per line; edges are implicit between L1-distance-1 pairs.
"""

from __future__ import annotations

import sys
from math import gcd

from .errors import InputError, echo
from .model import ASYM2D, SINKTREE1D, Instance, Instance1D, Instance2D, ReceiverAssignment


def _content_lines(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return [row for row in map(str.split, lines) if row]


def parse_points(text: str) -> Instance:
    """Parse a point file; the token count per line decides 1D vs 2D."""
    rows = _content_lines(text)
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
        if isinstance(instance, Instance1D):
            body = "\n".join(map(str, instance.ints) if s == 1 else (_token(x, s) for x in instance.ints))
        else:
            body = "\n".join(f"{_token(x, s)} {_token(y, s)}" for x, y in instance.ints)
    except ValueError as exc:
        raise InputError(f"cannot write a coordinate of more than {sys.get_int_max_str_digits()} digits") from exc
    return body + "\n"


def parse_assignment(text: str) -> ReceiverAssignment:
    rows = _content_lines(text)
    if not rows:
        raise InputError("assignment file is empty")
    if rows[0][0] != "model" or len(rows[0]) != 2:
        raise InputError("assignment file must start with `model <tag>`")
    model = rows[0][1]
    if model not in (ASYM2D, SINKTREE1D):
        raise InputError(f"unknown model tag: {echo(model)}")
    sink = None
    body = rows[1:]
    if body and body[0][0] == "sink":
        if len(body[0]) != 2:
            raise InputError("malformed sink line")
        sink = _parse_index(body[0][1])
        body = body[1:]
    receiver: dict[int, int] = {}
    try:
        for row in body:
            if len(row) != 2:
                raise InputError(f"malformed edge line: {echo(' '.join(row))}")
            p, q = row
            p = int(p) if p.isdecimal() else _parse_index(p)
            q = int(q) if q.isdecimal() else _parse_index(q)
            if p in receiver:
                raise InputError(f"point {p} has two receivers")
            receiver[p] = q
    except InputError:
        raise
    except ValueError:  # int() refused a decimal index of more digits than it reads
        for tok in row:
            _parse_index(tok)  # refuses that index as an InputError
        raise
    return ReceiverAssignment(model=model, receiver=receiver, sink=sink)


def _parse_index(tok: str) -> int:
    try:
        value = int(tok)
    except ValueError as exc:
        raise InputError(f"not an index: {echo(tok)}") from exc
    if value < 0:
        raise InputError(f"negative index: {echo(tok)}")
    return value


def format_assignment(assignment: ReceiverAssignment) -> str:
    """Canonical form: header, sink line, then edges sorted by source index."""
    lines = [f"model {assignment.model}"]
    if assignment.sink is not None:
        lines.append(f"sink {assignment.sink}")
    receiver = assignment.receiver
    lines += [f"{p} {receiver[p]}" for p in sorted(receiver)]
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> list[tuple[int, int]]:
    rows = _content_lines(text)
    if not rows:
        raise InputError("grid file contains no vertices")
    vertices = []
    for row in rows:
        if len(row) != 2:
            raise InputError("grid vertices are `x y` integer pairs")
        try:
            vertices.append((int(row[0]), int(row[1])))
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
