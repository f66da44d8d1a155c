from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interfmin import textio
from interfmin.errors import InputError, echo
from interfmin.families import gen_log_lower, random_instance_1d
from interfmin.model import ASYM2D, SINKTREE1D, Instance1D, Instance2D, ReceiverAssignment
from interfmin.nna import nna
from interfmin.textio import (
    _content_lines,
    _parse_index,
    format_assignment,
    format_points,
    parse_assignment,
    parse_grid,
    parse_points,
)


def test_parse_points_1d():
    inst = parse_points("# comment\n3/2\n0\n1  # trailing\n")
    assert isinstance(inst, Instance1D)
    assert inst.points == (0, 1, Fraction(3, 2))


def test_parse_points_2d():
    inst = parse_points("0 0\n1 0\n0 1\n")
    assert isinstance(inst, Instance2D)
    assert inst.n == 3


def test_parse_points_errors():
    with pytest.raises(InputError):
        parse_points("")
    with pytest.raises(InputError):
        parse_points("1\n2 3\n")
    with pytest.raises(InputError):
        parse_points("a b c\n")
    with pytest.raises(InputError):
        parse_points("x\n")
    with pytest.raises(InputError, match="^duplicate 1D point: 1/2$"):
        parse_points("0\n1/2\n2/4\n")
    with pytest.raises(InputError, match="^1D points must be strictly increasing$"):
        Instance1D((1, 0), 1)


def test_points_round_trip():
    inst = Instance1D.from_values([0, "1/3", 5])
    assert parse_points(format_points(inst)) == inst
    text = format_points(inst)
    assert format_points(parse_points(text)) == text


def test_assignment_round_trip():
    a = ReceiverAssignment(SINKTREE1D, {1: 0, 2: 1}, 0)
    text = format_assignment(a)
    assert parse_assignment(text) == a
    # canonical output is byte-stable under reparsing
    assert format_assignment(parse_assignment(text)) == text


def test_parse_assignment_errors():
    with pytest.raises(InputError):
        parse_assignment("")
    with pytest.raises(InputError):
        parse_assignment("model nope\n")
    with pytest.raises(InputError):
        parse_assignment("model sinktree1d\nsink 0\n1 0\n1 2\n")
    with pytest.raises(InputError):
        parse_assignment("model sinktree1d\nsink 0\n1\n")


def test_parse_grid():
    assert parse_grid("0 0\n1 0 # right\n") == [(0, 0), (1, 0)]
    with pytest.raises(InputError):
        parse_grid("0 0\n0 0\n")
    with pytest.raises(InputError):
        parse_grid("0\n")
    # int() reads `1_0` as 10; the grid grammar refuses it, but not in a comment.
    for text in ("0 0\n1_0 0\n", "0 0\n1 _0\n", "0 0\n1 0_\n"):
        with pytest.raises(InputError, match="not an integer pair"):
            parse_grid(text)
    assert parse_grid("0 0 # grid_a\n1 0\n") == [(0, 0), (1, 0)]
    assert parse_grid("0 0 # é\n1 0\n") == [(0, 0), (1, 0)]  # a non-ASCII comment is still a comment


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_points, "٣\n1\n", "not a rational number: '٣'"),
        (parse_points, "# c\n٣\n1\n", "not a rational number: '٣'"),
        (parse_points, "0\n٣/2\n", "not a rational number: '٣/2'"),
        (parse_points, "0 0\n1 ٣\n", "not a rational number: '٣'"),
        (parse_assignment, "model sinktree1d\nsink 0\n١ 0\n", "not an index: '١'"),
        (parse_assignment, "model sinktree1d\nsink ١\n1 0\n", "not an index: '١'"),
        (parse_assignment, "model asym2d\n0 1\n1 ١\n", "not an index: '١'"),
        (parse_grid, "0 0\n١ 0\n", "not an integer pair: '١ 0'"),
    ],
    ids=["point", "point-after-comment", "fraction", "point-2d", "edge", "sink", "edge-asym2d", "grid"],
)
def test_non_ascii_digits_are_refused(parse, text, message):
    # int() and Fraction read every Unicode digit; the file grammars take ASCII digits only.
    with pytest.raises(InputError) as info:
        parse(text)
    assert str(info.value) == message


def old_content_lines(text):
    """The line splitter as it was written before: strip, then split each line."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def old_parse_points(text):
    rows = old_content_lines(text)
    if not rows:
        raise InputError("point file contains no points")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("point file mixes 1D and 2D lines")
    if width == 1:
        return Instance1D.from_values(r[0] for r in rows)
    if width == 2:
        return Instance2D.from_values(rows)
    raise InputError(f"expected 1 or 2 tokens per point, got {width}")


def old_parse_assignment(text):
    """parse_assignment as it was written before: every index token through _parse_index."""
    rows = old_content_lines(text)
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
    receiver = {}
    for row in body:
        if len(row) != 2:
            raise InputError(f"malformed edge line: {echo(' '.join(row))}")
        p, q = _parse_index(row[0]), _parse_index(row[1])
        if p in receiver:
            raise InputError(f"point {p} has two receivers")
        receiver[p] = q
    return ReceiverAssignment(model=model, receiver=receiver, sink=sink)


def outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return f"InputError: {exc}"


POINT_TEXTS = [
    "",
    "\n \t\n# only a comment\n",
    "# comment\n3/2\n0\n1  # trailing\n",
    "0\r\n1\r\n-2\r\n",
    "0\x0c1\u20282\x853\x1c4\n",
    "\t+1 \n-0\n1_0\n٣\n",
    "1_0\n2\n",
    "1#2\n3 # 4 5\n#\n",
    "1\n2 3\n",
    "0 0\n1 0\r\n0 1 # corner\n",
    "a b c\n",
    "x\n",
    "0\n1/2\n2/4\n",
    "1/0\n",
    "1e3\n",
    "0\n" + "1" * 4301 + "\n",
    "12\n-3\n0\n7\n",
    "12\n-3\n\n0\n7\n",
    "12\n-3 # c\n0\n7\n",
    "12\n-3\r\n0\n7\n",
    "12 \n-3  \n0\t\n7\n",
    "12\n-3\n12\n",
    "12\n-3\n" + "4" * 4301 + "\n",
    "٣\n1\n",
    "# c\n1\n٣/2\n",
    "# é\n3\n1\n",
]

ASSIGNMENT_TEXTS = [
    "",
    "# nothing\n\n",
    "model sinktree1d\nsink 0\n1 0\n2 1\n",
    "model sinktree1d\r\nsink 0\r\n1 0\r\n",
    "model sinktree1d\x0csink 0\u20281\t0 # edge\n",
    "model sinktree1d\nsink +0\n+1 -0\n1_0 0\n٣ 0\n",
    "model\n",
    "modl sinktree1d\n",
    "model nope\n",
    "model sinktree1d\nsink\n",
    "model sinktree1d\nsink 0 1\n",
    "model sinktree1d\nsink 0\n1\n",
    "model sinktree1d\nsink 0\n1 0 2\n",
    "model sinktree1d\nsink 0\n1 0\n1 2\n",
    "model sinktree1d\nsink 0\nx 0\n",
    "model sinktree1d\nsink 0\n1 ²\n",
    "model sinktree1d\nsink 0\n1 -1\n",
    "model sinktree1d\nsink -3\n1 0\n",
    "model sinktree1d\nsink 0\n1 1\n",
    "model sinktree1d\n1 0\n",
    "model asym2d\nsink 0\n1 0\n",
    "model asym2d\n0 1\n1 2\n2 0\n",
    "model sinktree1d\nsink 0\n" + "1" * 4301 + " 0\n",
    "model sinktree1d\nsink 0\n1 " + "2" * 5000 + "\n",
    "model sinktree1d\nsink 1\n0 1\n2 1\n3 2\n",
    "model sinktree1d\nsink 1\n0 1\n\n2 1\n3 2\n",
    "model sinktree1d\nsink 1\n0 1\n2 1 # c\n3 2\n",
    "# c\nmodel sinktree1d\nsink 1\n0 1\n2 1\n3 2\n",
    "model sinktree1d\nsink 1\n0 1\r\n2 1\n3 2\n",
    "model sinktree1d\nsink 1\n0 1 \n2  1\n3 2  \n",
    "model sinktree1d\nsink 1\n0 1\n2\t1\n3 2\n",
    "model sinktree1d\nsink 1\n0 1\n2 1\n+2 1\n",
    "model sinktree1d\nsink 1\n-0 +1\n2 1_0\n",
    "model sinktree1d\nsink 1\n0 1\n2 -1\n",
    "model sinktree1d\nsink 0 1\n1 0\n",
    "model sinktree1d\nsink 0\n",
    "model asym2d\n0 1\n1 0\n",
    "model asym2d\n0 1\n1 0 2\n",
    "model sinktree1d\nsink 1\n0 1\n2 " + "3" * 4301 + "\n",
    "model sinktree1d\nsink 0\n0_1 0\n",
    "model sinktree1d\nsink 0\n1 0_0\n",
    "model sinktree1d\nsink 1_0\n1 0\n",
    "model asym2d\n0 1\n1_0 0\n",
    "model sinktree1d\nsink 1\n0 1 # edge_0\n2 1\n",
    "model sinktree1d\nsink 0\n١ 0\n",
    "model sinktree1d\nsink ١\n1 0\n",
    "model sinktree1d\nsink 1\n0 1 # é\n2 1\n",
]


@pytest.mark.parametrize("text", POINT_TEXTS, ids=range(len(POINT_TEXTS)))
def test_parse_points_matches_line_by_line_parser(text):
    assert _content_lines(text) == old_content_lines(text)
    assert outcome(parse_points, text) == outcome(old_parse_points, text)


@pytest.mark.parametrize("text", ASSIGNMENT_TEXTS, ids=range(len(ASSIGNMENT_TEXTS)))
def test_parse_assignment_matches_line_by_line_parser(text):
    assert _content_lines(text) == old_content_lines(text)
    assert outcome(parse_assignment, text) == outcome(old_parse_assignment, text)


def test_listed_texts_reach_every_parse_error():
    messages = [outcome(old_parse_points, t) for t in POINT_TEXTS]
    messages += [outcome(old_parse_assignment, t) for t in ASSIGNMENT_TEXTS]
    for part in [
        "point file contains no points",
        "point file mixes 1D and 2D lines",
        "expected 1 or 2 tokens per point",
        "not a rational number",
        "duplicate 1D point",
        "assignment file is empty",
        "assignment file must start with `model <tag>`",
        "unknown model tag",
        "malformed sink line",
        "malformed edge line",
        "has two receivers",
        "not an index",
        "negative index",
        "may not be its own receiver",
        "asym2d assignments have no sink",
        "sinktree1d assignments need a sink",
    ]:
        assert any(isinstance(m, str) and m.startswith("InputError: ") and part in m for m in messages), part


TOKENS = ["model", "sinktree1d", "asym2d", "sink", "0", "1", "2", "12", "+1", "-0", "-1", "1_0", "٣", "²", "x", "3/2"]
SEPARATORS = [" ", "\t", "  ", " \x0b"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\u2028", "\x85", " # note\n", "#\n"]


@st.composite
def line_files(draw):
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), max_size=3), max_size=6))
    return "".join(
        draw(st.sampled_from(SEPARATORS)).join(tokens) + draw(st.sampled_from(LINE_ENDS)) for tokens in lines
    )


@settings(max_examples=400, deadline=None)
@given(line_files())
def test_drawn_files_match_line_by_line_parser(text):
    assert _content_lines(text) == old_content_lines(text)
    assert outcome(parse_points, text) == outcome(old_parse_points, text)
    for assignment_text in (text, "model sinktree1d\nsink 0\n" + text):
        assert outcome(parse_assignment, assignment_text) == outcome(old_parse_assignment, assignment_text)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=30, unique=True),
    st.sampled_from([1, 1, 2, 3, 12, 10**20 + 1]),
)
def test_format_points_writes_fractions_and_round_trips(nums, den):
    inst = Instance1D.from_values(Fraction(v, den) for v in nums)
    text = format_points(inst)
    assert text == "".join(f"{x}\n" for x in inst.points)
    assert parse_points(text) == inst
    inst2 = Instance2D.from_values((Fraction(v, den), Fraction(-v, den)) for v in nums)
    text2 = format_points(inst2)
    assert text2 == "".join(f"{x} {y}\n" for x, y in inst2.points)
    assert parse_points(text2) == inst2


@pytest.mark.parametrize(
    "instance",
    [random_instance_1d(4000, 3, 10**6), gen_log_lower(700).instance, Instance1D((5,), 1)],
    ids=["random", "loglower", "one-point"],
)
def test_written_1d_files_are_read_whole(monkeypatch, instance):
    """A 1D point file at scale 1 and a written assignment reach the line-by-line
    parser for nothing but the assignment's header and sink lines."""
    split_rows = textio._rows
    taken = []

    def counted_rows(text, lines):
        for row in split_rows(text, lines):
            taken.append(row)
            yield row

    monkeypatch.setattr(textio, "_rows", counted_rows)
    witness = nna(instance)
    assert parse_points(format_points(instance)) == instance
    assert taken == []
    assert parse_assignment(format_assignment(witness)) == witness
    assert taken == [["model", SINKTREE1D], ["sink", str(witness.sink)]]
