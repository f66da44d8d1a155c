import re
import sys
import tracemalloc
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


NEWLY_REFUSED = [
    *[pytest.param(parse_points, head + f"{token}\n2\n", f"not a rational number: {token!r}", id=f"point{where}{token}")
      for token in ("+1", "1.5", ".5", "5.", "+3/2") for head, where in (("", " "), ("# c\n", " after comment "))],
    pytest.param(parse_assignment, "model sinktree1d\nsink 0\n+1 0\n", "not an index: '+1'", id="edge +1"),
    pytest.param(parse_assignment, "model sinktree1d\nsink +1\n0 1\n", "not an index: '+1'", id="sink +1"),
    pytest.param(parse_grid, "0 0\n+1 0\n", "not an integer pair: '+1 0'", id="grid +1 0"),
]


@pytest.mark.parametrize("parse, text, message", NEWLY_REFUSED)
def test_signed_and_decimal_tokens_are_refused(parse, text, message):
    # A point is `a` or `a/b` and an index or grid coordinate an integer, of ASCII
    # digits after an optional `-`; a `+` or a decimal point is refused on the
    # whole-file path and the line-by-line path alike.
    with pytest.raises(InputError) as info:
        parse(text)
    assert str(info.value) == message


def test_minus_zero_and_leading_zeros_still_read():
    assert parse_assignment("model sinktree1d\nsink -0\n1 -0\n") == ReceiverAssignment(SINKTREE1D, {1: 0}, 0)
    assert parse_points("-3/2\n-0\n007\n").points == (Fraction(-3, 2), 0, 7)
    assert parse_points("# c\n-3/2\n-0\n007\n").points == (Fraction(-3, 2), 0, 7)
    assert parse_points("007\n-0\n").points == (0, 7)  # the whole-file read
    assert parse_grid("-0 007\n1 -0\n") == [(0, 7), (1, 0)]


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
def line_files(draw, min_tokens=0, max_tokens=3):
    lines = draw(st.lists(st.lists(st.sampled_from(TOKENS), min_size=min_tokens, max_size=max_tokens), max_size=6))
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


def old_format_points(instance):
    """format_points as it was written, one string per line, here from the
    instance's Fraction points."""
    try:
        if isinstance(instance, Instance1D):
            body = "\n".join(str(x) for x in instance.points)
        else:
            body = "\n".join(f"{x} {y}" for x, y in instance.points)
    except ValueError as exc:
        raise InputError(f"cannot write a coordinate of more than {sys.get_int_max_str_digits()} digits") from exc
    return body + "\n"


def old_format_assignment(assignment):
    """format_assignment as it was written with one string per line."""
    lines = [f"model {assignment.model}"]
    if assignment.sink is not None:
        lines.append(f"sink {assignment.sink}")
    receiver = assignment.receiver
    lines += [f"{p} {receiver[p]}" for p in sorted(receiver)]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=30, unique=True),
    st.sampled_from([1, 1, 2, 3, 12, 10**20 + 1]),
)
def test_format_points_writes_fractions_and_round_trips(nums, den):
    inst = Instance1D.from_values(Fraction(v, den) for v in nums)
    text = format_points(inst)
    assert text == old_format_points(inst)
    assert parse_points(text) == inst
    inst2 = Instance2D.from_values((Fraction(v, den), Fraction(-v, den)) for v in nums)
    text2 = format_points(inst2)
    assert text2 == old_format_points(inst2)
    assert parse_points(text2) == inst2


@pytest.mark.parametrize(
    "instance",
    [random_instance_1d(4000, 3, 10**6), gen_log_lower(700).instance, Instance1D((5,), 1)],
    ids=["random", "loglower", "one-point"],
)
def test_written_1d_files_are_read_whole(monkeypatch, instance):
    """A 1D point file at scale 1 is read whole, without the line-by-line
    parser; a written assignment passes through it once, line by line."""
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
    text = format_assignment(witness)
    assert parse_assignment(text) == witness
    assert taken == [line.split() for line in text.splitlines()]


def test_parse_assignment_holds_one_row_at_a_time():
    """Parsing a written 10^5-edge assignment allocates little beyond what it
    returns: 7.5-8.3 MiB on Python 3.10-3.13, and 18.6-20.9 MiB while the edge
    lines were read whole with a 3-tuple per line alive at once."""
    text = format_assignment(nna(random_instance_1d(100000, 7, 10**9)))
    tracemalloc.start()
    try:
        assignment = parse_assignment(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(assignment.receiver) == 99999
    assert peak - retained < 12 * 2**20


@st.composite
def scale_one_instances(draw):
    """1D instances at scale 1: negative coordinates, and gen_log_lower's
    fillers of hundreds of digits."""
    if draw(st.booleans()):
        return gen_log_lower(draw(st.integers(1, 1500))).instance
    return Instance1D.from_values(draw(st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=40, unique=True)))


@settings(max_examples=150, deadline=None)
@given(scale_one_instances())
def test_writers_at_scale_one_match_line_by_line_writers(instance):
    assert format_points(instance) == old_format_points(instance)
    witness = nna(instance)
    assert format_assignment(witness) == old_format_assignment(witness)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=40, unique_by=lambda e: e[0]))
def test_format_asym2d_assignment_matches_line_by_line_writer(edges):
    assignment = ReceiverAssignment(ASYM2D, {p: q for p, q in edges if p != q}, None)
    assert format_assignment(assignment) == old_format_assignment(assignment)
    assert parse_assignment(format_assignment(assignment)) == assignment


def test_format_one_point():
    instance = Instance1D((-7,), 1)
    assert format_points(instance) == "-7\n"
    witness = nna(instance)
    assert format_assignment(witness) == old_format_assignment(witness) == "model sinktree1d\nsink 0\n"


@pytest.mark.parametrize(
    "instance",
    [
        Instance1D((0, 10**4300), 1),
        Instance1D((-(10**4300), 0), 1),
        Instance1D((1, 10**4301), 2),
        Instance2D(((0, 10**4300), (1, 0)), 1),
    ],
    ids=["1d", "1d-negative", "1d-scale-2", "2d"],
)
def test_format_points_refuses_more_digits_than_str_writes(instance):
    message = f"cannot write a coordinate of more than {sys.get_int_max_str_digits()} digits"
    with pytest.raises(InputError) as info:
        format_points(instance)
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        old_format_points(instance)
    assert str(info.value) == message


# A reference for the number tokens, written from the grammar with regular
# expressions and the standard library only, so it shares no code with the
# readers it checks.  An integer is ASCII digits after an optional `-`; a 1D
# point is `a` or `a/b` with b > 0; an index is an integer >= 0 (digits, or
# `-` and zeros); a grid vertex is a pair of integers; and no run of digits is
# longer than int() reads.
POINT_TOKEN = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")
INDEX_TOKEN = re.compile(r"[0-9]+|-0+")
INTEGER_TOKEN = re.compile(r"-?[0-9]+")
NEGATIVE_INDEX_TOKEN = re.compile(r"-[0-9]*[1-9][0-9]*")


def digit_runs_fit(token):
    return all(len(run) <= sys.get_int_max_str_digits() for run in re.findall("[0-9]+", token))


def quoted(token):
    """The start of a message that names `token`; longer tokens are shortened."""
    return repr(token) if len(token) <= 40 else repr(token[:40])


def regex_points_outcome(text):
    """What parse_points gives for a 1D text, by the token regex; None for
    any other text."""
    rows = old_content_lines(text)
    if not rows or any(len(row) != 1 for row in rows):
        return None
    tokens = [row[0] for row in rows]
    for token in tokens:
        if not (POINT_TOKEN.fullmatch(token) and digit_runs_fit(token)):
            return f"InputError: not a rational number: {quoted(token)}"
    values = sorted(map(Fraction, tokens))
    if len(set(values)) < len(values):
        return "InputError: duplicate 1D point"
    return tuple(values)


def regex_index(token):
    if INDEX_TOKEN.fullmatch(token) and digit_runs_fit(token):
        return int(token)
    if NEGATIVE_INDEX_TOKEN.fullmatch(token) and digit_runs_fit(token):
        return f"InputError: negative index: {quoted(token)}"
    return f"InputError: not an index: {quoted(token)}"


def regex_assignment_outcome(text):
    """What parse_assignment gives, by the index regex, for a text with a good
    header, an optional two-token sink line and then two-token edge lines;
    None for any other text."""
    rows = old_content_lines(text)
    if not rows or len(rows[0]) != 2 or rows[0][0] != "model" or rows[0][1] not in (ASYM2D, SINKTREE1D):
        return None
    body = rows[1:]
    if any(len(row) != 2 for row in body):
        return None
    sink = None
    if body and body[0][0] == "sink":
        sink = regex_index(body[0][1])
        if isinstance(sink, str):
            return sink
        body = body[1:]
    receiver = {}
    for row in body:
        p, q = regex_index(row[0]), regex_index(row[1])
        for value in (p, q):
            if isinstance(value, str):
                return value
        if p in receiver:
            return f"InputError: point {str(p)[:40]}"  # ... has two receivers
        receiver[p] = q
    model = rows[0][1]
    for p, q in receiver.items():
        if p == q:
            return f"InputError: point {str(p)[:40]}"  # ... may not be its own receiver
    if model == ASYM2D and sink is not None:
        return "InputError: asym2d assignments have no sink"
    if model == SINKTREE1D and sink is None:
        return "InputError: sinktree1d assignments need a sink"
    return model, receiver, sink


def regex_grid_outcome(text):
    """What parse_grid gives, by the integer regex."""
    rows = old_content_lines(text)
    if not rows:
        return "InputError: grid file contains no vertices"
    vertices = []
    for row in rows:
        if len(row) != 2:
            return "InputError: grid vertices are `x y` integer pairs"
        if not all(INTEGER_TOKEN.fullmatch(token) and digit_runs_fit(token) for token in row):
            return f"InputError: not an integer pair: {quoted(' '.join(row))}"
        vertices.append((int(row[0]), int(row[1])))
    if len(set(vertices)) < len(vertices):
        return "InputError: duplicate grid vertex"
    return vertices


def check_grid_against_regex_reference(text):
    expected = regex_grid_outcome(text)
    got = outcome(parse_grid, text)
    if isinstance(expected, str):
        assert isinstance(got, str) and got.startswith(expected), (got, expected)
    else:
        assert got == expected, (got, expected)


def check_against_regex_reference(text):
    check_grid_against_regex_reference(text)
    expected = regex_points_outcome(text)
    got = outcome(parse_points, text)
    if isinstance(expected, str):
        assert isinstance(got, str) and got.startswith(expected), (got, expected)
    elif expected is not None:
        assert not isinstance(got, str) and got.points == expected, (got, expected)
    for assignment_text in (text, "model sinktree1d\nsink 0\n" + text):
        expected = regex_assignment_outcome(assignment_text)
        got = outcome(parse_assignment, assignment_text)
        if isinstance(expected, str):
            assert isinstance(got, str) and got.startswith(expected), (got, expected)
        elif expected is not None:
            assert not isinstance(got, str) and (got.model, got.receiver, got.sink) == expected, (got, expected)


GRID_TEXTS = [
    "0 0\n1 0\n",
    "007 -3\n-0 0 # c\n",
    "0 0\n-0 0\n",
    "0 0\n+1 0\n",
    "0 0\n1 -1.5\n",
    "0 0\n1 1/1\n",
    "0 0\n1 0 2\n",
    "0 0\n" + "1" * 4301 + " 0\n",
    "0 0\n" + "1" * 4300 + " 0\n",
]

LISTED_TEXTS = POINT_TEXTS + ASSIGNMENT_TEXTS + GRID_TEXTS


@pytest.mark.parametrize("text", LISTED_TEXTS, ids=range(len(LISTED_TEXTS)))
def test_listed_texts_match_regex_reference(text):
    check_against_regex_reference(text)


def test_regex_reference_sees_the_listed_tokens():
    """The listed texts reach every verdict of the reference."""
    points = [regex_points_outcome(t) for t in POINT_TEXTS]
    assignments = [regex_assignment_outcome(t) for t in ASSIGNMENT_TEXTS]
    grids = [regex_grid_outcome(t) for t in LISTED_TEXTS]
    for part in ["not a rational number", "duplicate 1D point", "not an index", "negative index", "point 1", "no sink",
                 "no vertices", "integer pairs", "not an integer pair", "duplicate grid vertex"]:
        assert any(isinstance(v, str) and part in v for v in points + assignments + grids), part
    assert any(isinstance(v, tuple) for v in points) and any(isinstance(v, tuple) for v in assignments)
    assert any(isinstance(v, list) for v in grids)


@settings(max_examples=400, deadline=None)
@given(line_files())
def test_drawn_files_match_regex_reference(text):
    check_against_regex_reference(text)


@settings(max_examples=400, deadline=None)
@given(line_files(min_tokens=2, max_tokens=2))
def test_drawn_grid_files_match_regex_reference(text):
    check_grid_against_regex_reference(text)


POINT_TOKENS = ["0", "7", "-3", "+1", "-0", "3/2", "-3/2", "+3/2", "6/4", "1/0", "0/5", "1.5", "-.5", "+.5", "5.",
                ".", "1.5/2", "1e3", "1E3", "1_0", "٣", "²", "x", "nan", "inf", "--1", "1/-2", "1/+2", "/2", "1/"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(POINT_TOKENS), min_size=1, max_size=6), st.sampled_from(["\n", " # c\n", "\r\n"]))
def test_drawn_point_files_match_regex_reference(tokens, end):
    text = end.join(tokens) + end
    check_against_regex_reference(text)
    assert regex_points_outcome(text) is not None
