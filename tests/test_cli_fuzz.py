"""Property tests of the command line's input surface: whatever `--c`,
`--t` or a `--config` file holds, `cli.main` answers (exit 0) or refuses
with one `error:` line or an argparse usage message (exit 2); it never
ends in a traceback."""
import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.cli import main

COMMANDS = [["partition", "--group", "A1"],
            ["dirac-cohomology", "--group", "A1", "--sigma", "triv"]]

FUZZ = settings(max_examples=150, deadline=None, database=None)

# free text: printable ASCII, controls, and non-ASCII digits, signs and
# separators (an explicit alphabet spares the Unicode tables' start-up)
_ALPHABET = ("".join(map(chr, range(32, 127))) + "\x00\t\r\x0b\u00a0"
             "\u2028\u00e9\u03b6\u0663\uff11\u00b2\u2212\u2044")
_TEXT = st.text(_ALPHABET, max_size=20)

# Near-misses of the grammar [+-]digits[/digits] | cyclo(N; e:p/q, ...):
# signs, doubled or odd separators, float and underscore forms, repeated
# exponents, unclosed cyclo(.  Magnitudes stay below 10^3.  Conductors run
# up to 999, under scalars.MAX_CONDUCTOR, where arithmetic in Q(zeta_N)
# costs up to about 0.2 s a command, plus a few past it, which are refused
# at once (exit 2).  Larger magnitudes are not malformed but cost more: at
# t = 1 a zero-scalar degree k past --K is refused from the closed form of
# the S^k(h*) character, whose recurrence still runs in time linear in k,
# which grows with c.
_NUM = st.one_of(st.integers(0, 999).map(str),
                 st.sampled_from(["", "0", "007", "1e3", "1_0", "0.5", "x",
                                  "\u0663", " 1"]))
PAST_CAP = (1001, 4000, 1000003)
_PAST_CAP = st.sampled_from([str(n) for n in PAST_CAP])
_RATIONAL = st.builds(
    lambda sign, p, sep, q: sign + p + sep + q,
    st.sampled_from(["", "+", "-", "+-", "--"]), _NUM,
    st.sampled_from(["", "/", "//", " / ", ".", ":"]), _NUM)
_TERM = st.builds(
    lambda e, sep, value: e + sep + value,
    _NUM, st.sampled_from([":", "", "::", " : "]), _RATIONAL)
_CYCLO = st.builds(
    lambda n, semi, terms, close: f"cyclo({n}{semi} {', '.join(terms)}{close}",
    st.one_of(st.integers(0, 60).map(str), _NUM, _PAST_CAP),
    st.sampled_from([";", "", ",", ";;"]),
    st.lists(_TERM, max_size=4), st.sampled_from([")", "", "))", " )"]))
_SCALAR = st.one_of(_TEXT, _RATIONAL, _CYCLO)


def _run(argv):
    """(exit code, stderr) of cli.main, SystemExit included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _check(argv):
    code, err = _run(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2 and err.startswith("error: "):
        assert err.count("\n") == 1, err


@FUZZ
@given(st.sampled_from(COMMANDS), st.lists(_SCALAR, max_size=2),
       st.one_of(st.none(), _SCALAR))
def test_any_c_and_t_exit_zero_or_two(command, cs, t):
    argv = list(command)
    for c in cs:
        argv += ["--c", c]
    if t is not None and command[0] == "dirac-cohomology":
        argv += ["--t", t]
    _check(argv)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("n", PAST_CAP)
def test_conductor_past_the_cap_exits_two(command, n):
    code, err = _run(command + ["--c", f"cyclo({n}; 1:1/1)"])
    assert code == 2
    assert err == f"error: conductor {n} exceeds the cap 1000\n"


_KEYS = st.one_of(
    st.sampled_from(["group", "t", "c", "K", "sigma", "simple", "format",
                     "out", "config", "command", "handler", "preset"]),
    _TEXT)
_VALUES = st.one_of(
    _SCALAR, st.integers(-5, 999).map(str),
    st.sampled_from(["", "true", "false", "ture", "json", "xml", "triv",
                     "sgn", "nope", "0", "1", "-h", "--help", "a,b", "1,s=2",
                     "s=1/2", "#", "= ="]))


@FUZZ
@given(st.sampled_from(COMMANDS),
       st.lists(st.one_of(st.tuples(_KEYS, _VALUES), _TEXT), max_size=5))
def test_any_config_file_exits_zero_or_two(command, lines):
    with tempfile.TemporaryDirectory() as tmp:
        text = "".join(f"{line[0]} = {line[1]}\n" if isinstance(line, tuple)
                       else line + "\n" for line in lines)
        # an `out` value lands in a missing directory under tmp, so the
        # write is refused (exit 2) and nothing is written
        text = text.replace("out = ", "out = " + os.path.join(tmp, "o", ""))
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        _check(command + ["--config", cfg])
