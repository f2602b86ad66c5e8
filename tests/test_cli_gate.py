"""Generated robustness gate for the command line.

Every command line either works (exit 0), reports a failed check (exit 1), or
is refused with a message (exit 2).  The strategies are derived from the leaves
of ``cli.build_parser()``: each leaf's positionals and flags, with their types
and choices, take values from edge literals, and flags are sometimes left out,
given twice, or set through a ``--config`` file.  Work-size flags are drawn
only from cheap values, or from values that are refused before any work, so a
run stays well under 30 s.  The run is derandomized; the explicit examples are
edge points where earlier versions ended in a traceback.
"""

import argparse
import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chebsum import cli

FLOATS = ("0.5", "-0.5", "0", "-0", "-1", "1", "nan", "inf", "-inf",
          repr(1 - 2 ** -53), "0.999999999", "-0.999999999")
EXACTS = ("1/2", "-1/3", "3/5", "0", "-1", "1", "0.999999999", repr(1 - 2 ** -53))
# Text that a number flag or list entry must refuse.
JUNK = ("", "1/0", "nan", "inf", "1.5", "x")

# The values of each int flag, by dest, a typical one first: cheap ones, and large
# ones only where the refusal comes before any work (n = 6, 100000 marginal nodes).
CHEAP_INTS = {
    "n": (2, 1, 3, 0, -1, 6),
    "k": (1, 0, 2, -1),
    "trials": (1, 2, 0, -1),
    "points": (1, 2, 0),
    "order": (8, 1, 0, -1),
    "cutoff": (4, 1, 0, -1),
    "oracle_cutoff": (0, 4, 1, -1),
    "nodes": (8, 1, 2, 0, 100000),
    "nmax": (2, 1, 0, 3, -1, 20),
    "rho_order": (3, 0, -1, 13),
    "jobs": (1, 2, 0),
    "seed": (0, 1, -1),
}


def _mostly(good, bad):
    """``good``, and about one time in 32 ``bad``: most lines get past the parser."""
    return st.integers(0, 31).flatmap(lambda i: bad if i == 31 else good)


def _items(values, max_size):
    """Comma lists of the literals, repeated entries included, now and then with junk."""
    item = _mostly(st.sampled_from(values), st.sampled_from(JUNK))
    return st.lists(item, min_size=1, max_size=max_size).map(",".join)


# The text formats of the string flags, by dest.  Pair keys repeat, and now and
# then are not two digits or name an index past the matrix.
_PAIR = st.tuples(_mostly(st.sampled_from(("12", "13", "23")),
                          st.sampled_from(("11", "1", "", "45"))),
                  _mostly(st.sampled_from(FLOATS + EXACTS), st.sampled_from(JUNK)))
TEXT = {
    "t": _items(("0", "1", "-1", "2", "-2", "100000"), 4),
    "x": _items(FLOATS, 4),
    "rho": st.lists(_PAIR, max_size=3).map(lambda kv: ",".join(f"{k}={v}" for k, v in kv)),
    "q": _items(EXACTS, 3),
}


def _leaves(parser, path=()):
    """(command words, parser) of every leaf command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, path + (name,))


def _flags(leaf):
    """The leaf's flags that take drawn values: all but --help and --json."""
    return [a for a in leaf._actions if a.option_strings and a.dest not in ("help", "json_path")]


LEAVES = list(_leaves(cli.build_parser()))
FLAGS = [a for _, leaf in LEAVES for a in _flags(leaf)]


def _text(action):
    """Command-line text for one value of the flag or positional."""
    if action.choices is not None:
        return _mostly(st.sampled_from(action.choices), st.just("bogus"))
    if action.type is int:
        return _mostly(st.sampled_from(CHEAP_INTS[action.dest]).map(str), st.sampled_from(JUNK))
    if action.type is float:
        return _mostly(st.sampled_from(FLOATS), st.sampled_from(JUNK[:2]))
    return TEXT[action.dest]


def _json(action):
    """A --config value for the flag: usually of its type, now and then not."""
    if action.nargs == 0:
        typed = st.booleans()
    elif action.type is int:
        typed = st.sampled_from(CHEAP_INTS[action.dest])
    elif action.type is float:
        typed = st.sampled_from([float(v) for v in FLOATS])
    else:
        typed = _text(action)
    return _mostly(typed, st.sampled_from([None, True, "1", [1]]))


@st.composite
def command_lines(draw):
    """(argv, config): a leaf's words, then its positionals and flags; config is a dict or None."""
    path, leaf = draw(st.sampled_from(LEAVES))
    argv = list(path)
    flags = _flags(leaf)
    for action in leaf._actions:
        if not action.option_strings:  # the positional of verify
            argv.append(draw(_text(action)))
    for action in flags:
        times = draw(_mostly(st.just(1), st.sampled_from((0, 2))) if action.required
                     else st.sampled_from((0, 1, 1, 2)))
        for _ in range(times):
            argv.append(action.option_strings[0] if action.nargs == 0
                        else f"{action.option_strings[0]}={draw(_text(action))}")
    config = None
    if flags and draw(st.sampled_from((False, False, False, True))):
        chosen = draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3,
                               unique_by=lambda a: a.dest))
        config = {a.dest: draw(_json(a)) for a in chosen}
    return argv, config


def _check_exit(argv):
    """The gate's properties: exit 0, 1 or 2, no traceback, and a message with exit 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert "error:" in err, (argv, err)


def test_every_flag_has_a_strategy():
    # A new flag must get its cheap values or text format here before the gate runs it.
    for action in FLAGS:
        if action.choices is None and action.nargs != 0:
            table = CHEAP_INTS if action.type is int else TEXT
            assert action.type is float or action.dest in table, action.option_strings


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example((["chi", "eval", "--k=1", "--n=0", "--x=1", "--rho=0.999999999"], None))
@example((["chi", "eval", "--k=0", "--n=1", "--x=-1", "--rho=-0.999999999"], None))
@example((["kibble", "eval", "--kind=T", "--x=1,1", "--rho=12=0.999999999"], None))
@example((["verify", "marginals", "--nodes=100000"], None))
@example((["q", "check", "--suite=chi1t", f"--q={1 - 2 ** -53!r}", "--nmax=1"], None))
@example((["q", "check", "--suite=final-identity", "--q=0.999999999"], None))
@example((["q", "probe", "--conjecture=common-denominator", f"--q={1 - 2 ** -53!r}"], None))
@given(command_lines())
def test_cli_exits_cleanly(tmp_path_factory, case):
    argv, config = case
    if config is not None:
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)] + argv
    _check_exit(argv)


# The corners of the float closed forms: |x| -> 1 and |rho| -> 1.
CORNER_X = ("1", "-1", "0", "0.5", "0.999999999", "-0.999999999")
CORNER_RHO = ("0.999999999", "-0.999999999", repr(1 - 2 ** -53), repr(2 ** -53 - 1))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_float_corners_exit_cleanly(data):
    # The generated lines above seldom give as many coordinates as slots; here the
    # float closed forms always get a point of the right arity, at the corners.
    draw = data.draw
    k, n = draw(st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 3)]))
    xs = ",".join(draw(st.lists(st.sampled_from(CORNER_X), min_size=k + n, max_size=k + n)))
    t = ",".join(draw(st.lists(st.sampled_from(("0", "1", "-1", "-2")), min_size=k + n,
                               max_size=k + n)))
    _check_exit(["chi", "eval", f"--k={k}", f"--n={n}", f"--t={t}", f"--x={xs}",
                 f"--rho={draw(st.sampled_from(CORNER_RHO))}"])
    dim = draw(st.integers(2, 3))
    pairs = draw(st.lists(st.tuples(st.sampled_from(("12", "13", "23") if dim == 3 else ("12",)),
                                    st.sampled_from(CORNER_RHO + ("0",))),
                          unique_by=lambda kv: kv[0]))
    _check_exit(["kibble", "eval", f"--kind={draw(st.sampled_from('TU'))}",
                 f"--x={','.join(draw(st.sampled_from(CORNER_X)) for _ in range(dim))}",
                 f"--rho={','.join(f'{a}={b}' for a, b in pairs)}",
                 f"--oracle-cutoff={draw(st.sampled_from((0, 3)))}"])
