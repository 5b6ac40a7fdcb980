"""Property tests: instance text round trips, and the CLI on mutated
instance text. Skipped where hypothesis is not installed."""

import pytest

from kroutecut import INF, DemandSet, Flavor, Graph, Instance
from kroutecut.cli import parse_instance, render_instance, run

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

WEIGHTS = st.one_of(st.integers(0, 9), st.integers(0, INF),
                    st.just(INF))


@st.composite
def instances(draw):
    n = draw(st.integers(2, 8))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = draw(st.lists(st.tuples(ends, WEIGHTS), max_size=12))
    pairs = draw(st.lists(ends, max_size=4))
    return Instance(Graph(n, [(u, v, w) for (u, v), w in edges]),
                    DemandSet(pairs), draw(st.integers(1, 4)),
                    draw(st.sampled_from(Flavor)))


@settings(max_examples=100, deadline=None)
@given(instances())
def test_render_parse_round_trip(inst):
    assert parse_instance(render_instance(inst)) == inst


# One record of the grammar with small or bad tokens, or any text.
TOKEN = st.one_of(st.integers(-1, 7).map(str),
                  st.sampled_from(["inf", "x", "9" * 20, "ec", "krc", ""]))
RECORD = st.one_of(
    st.builds(lambda f, *t: " ".join(("p", "krc", f, *t)),
              st.sampled_from(["ec", "vc", "xx"]), TOKEN, TOKEN, TOKEN, TOKEN),
    st.builds(lambda *t: " ".join(("e", *t)), TOKEN, TOKEN, TOKEN),
    st.builds(lambda *t: " ".join(("d", *t)), TOKEN, TOKEN),
    st.text(max_size=12))


@st.composite
def instance_texts(draw):
    """A rendered instance with up to two lines inserted or replaced."""
    lines = render_instance(draw(instances())).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        lines[i:i + draw(st.integers(0, 1))] = [draw(RECORD)]
    return "\n".join(lines)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=instance_texts(),
       alg=st.sampled_from(["ec", "uniform-ec", "ec-polytime", "vc",
                            "two-route", "st"]),
       mode=st.sampled_from(["exact", "sweep"]))
def test_cli_solve_exits_0_1_or_2_on_any_text(tmp_path, text, alg, mode):
    path = tmp_path / "fuzz.krc"
    path.write_text(text)
    assert run(["solve", "--alg", alg, "--input", str(path),
                "--oracle", mode]) in (0, 1, 2)
