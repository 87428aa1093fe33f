import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resweave import expr as ex
from resweave import resources as res
from resweave.model import Assign, Raise

from generators import gen_windows

INF = math.inf


def test_parse_stroke_map():
    parsed = res.parse_resource_map("CTscan: CT_machine, CT_technician\ngivetPA: tPA\n")
    assert parsed.entries == (
        ("CTscan", ("CT_machine", "CT_technician")),
        ("givetPA", ("tPA",)),
    )
    assert parsed.unique_resources() == ("CT_machine", "CT_technician", "tPA")


def test_parse_map_empty_and_comments():
    assert res.parse_resource_map("").entries == ()
    assert res.parse_resource_map("# nothing\n\n").entries == ()


def test_parse_map_space_in_resource_name():
    with pytest.raises(res.MapFormatError, match="underscores"):
        res.parse_resource_map("CTscan: CT machine")


def test_parse_map_duplicate_and_empty_list():
    with pytest.raises(res.MapFormatError, match="duplicate"):
        res.parse_resource_map("a: r\na: s")
    with pytest.raises(res.MapFormatError, match="empty"):
        res.parse_resource_map("a:")


def test_map_get_returns_first_entry_of_a_repeated_action():
    hand_built = res.ResourceMap((("CTscan", ("a",)), ("givetPA", ("b",)), ("CTscan", ("c",))))
    assert hand_built.get("CTscan") == ("a",)
    assert hand_built.get("givetPA") == ("b",)
    assert hand_built.get("other") is None


def test_parse_schedule_stroke_case():
    schedule = res.parse_schedule(
        "CT_machine: (200, inf)\nCT_technician: (200, inf)\ntPA: (-1, inf)\n"
    )
    assert schedule.windows_for("CT_machine") == (res.Window(200, INF),)
    assert schedule.windows_for("tPA") == (res.Window(-1, INF),)
    assert schedule.windows_for("radiologist") == ()  # absent means never available
    assert schedule.horizon == 720


def test_parse_schedule_horizon_and_multiwindow():
    schedule = res.parse_schedule("horizon: 500\nr: (240, 300), (60, 120)\n")
    assert schedule.horizon == 500
    assert schedule.windows_for("r") == (res.Window(60, 120), res.Window(240, 300))


@pytest.mark.parametrize(
    "text, match",
    [
        ("r: (10, 5)", "not below"),
        ("r: (-4, 10)", "negative"),
        ("r: (0, 10), (5, 20)", "overlap"),
        ("r: nonsense", "window list"),
        ("r: (800, 900)", "beyond horizon"),
        ("horizon: -1", "positive"),
        ("horizon: 12x", "line 1: horizon '12x' is not a positive 64-bit integer"),
        ("horizon: 1_0", "line 1: horizon '1_0' is not a positive 64-bit integer"),
        ("horizon: +5", "is not a positive 64-bit integer"),
        ("horizon: 9223372036854775808", "line 1: horizon '9223372036854775808' is not a positive 64-bit integer"),
        ("horizon: 99999999999999999999\nr: (200, 99999999999999999999)", "is not a positive 64-bit integer"),
        ("r: (0, 10)\n# again\nr: (20, 30)", "line 3: duplicate resource 'r'"),
        ("horizon: 100\nr: (0, 10)\nhorizon: 300", "line 3: duplicate horizon"),
    ],
)
def test_parse_schedule_errors(text, match):
    with pytest.raises(res.ScheduleFormatError, match=match):
        res.parse_schedule(text)


def test_window_bound_of_thousands_of_digits_is_refused():
    text = "r: (0, 1" + "0" * 5000 + ")"
    with pytest.raises(res.ScheduleFormatError) as err:
        res.parse_schedule(text)
    assert str(err.value) == f"line 1: window bound outside 64 bits in {text[3:]!r}"


def test_parse_schedule_takes_the_largest_64_bit_horizon():
    schedule = res.parse_schedule("horizon: 9223372036854775807\nr: (200, 9223372036854775807)\n")
    assert schedule.horizon == 2**63 - 1
    assert schedule.windows_for("r") == (res.Window(200, 2**63 - 1),)


def test_is_available_strict_start():
    windows = (res.Window(200, INF),)
    assert res.is_available(windows, 200) is False
    assert res.is_available(windows, 201) is True
    assert res.is_available((), 5) is False
    assert res.is_available((res.Window(-1, INF),), 0) is True


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(-1, 100), st.integers(0, 101)).map(
            lambda p: res.Window(min(p), max(p) + 1)
        ),
        max_size=5,
    ),
    st.tuples(st.integers(-1, 100), st.integers(0, 101)).map(
        lambda p: res.Window(min(p), max(p) + 1)
    ),
    st.integers(-2, 110),
)
def test_availability_monotone_under_union(windows, extra, t):
    before = res.is_available(windows, t)
    after = res.is_available(list(windows) + [extra], t)
    assert not (before and not after)


def test_synthesize_timer_shape():
    timer = res.synthesize_timer()
    assert timer.name == "Timer"
    assert [s.name for s in timer.states] == ["timer"]
    (loop,) = timer.transitions
    assert loop.source == loop.target == "timer"
    assert loop.trigger == "every 60s"
    assert loop.actions == (Assign("curT", ex.parse_expr("curT+1")),)


def test_synthesize_interface_from_map():
    rmap = res.parse_resource_map("CTscan: CT_machine, CT_technician\ngivetPA: tPA\n")
    decls = res.interface_for_resources(rmap.unique_resources())
    assert [d.name for d in decls] == ["RES.CT_machine", "RES.CT_technician", "RES.tPA"]
    assert all(d.kind == "boolean" and d.initial is False for d in decls)
    assert res.interface_for_resources(res.ResourceMap(()).unique_resources()) == ()


def test_interface_deduplicates_shared_resource():
    rmap = res.parse_resource_map("givetPA: tPA\ngiveIAtPA: tPA, IA_kit\n")
    decls = res.interface_for_resources(rmap.unique_resources())
    assert [d.name for d in decls] == ["RES.tPA", "RES.IA_kit"]


def _entry_surface(chart):
    from resweave.model import guarded_action_to_text

    (state,) = chart.states
    return [guarded_action_to_text(ga, "entry") for ga in state.entry_actions]


def test_resource_chart_single_window():
    chart = res.synthesize_resource_chart("CT_machine", (res.Window(200, INF),))
    assert chart.name == "CT_machine"
    assert _entry_surface(chart) == [
        "entry[curT>200]/ RES.CT_machine = true",
        "entry[curT<=200]/ RES.CT_machine = false",
    ]
    (loop,) = chart.transitions
    assert loop.source == loop.target == "CT_machine"
    assert loop.guard == ex.TRUE
    assert loop.trigger is None


def test_resource_chart_always_and_never():
    always = res.synthesize_resource_chart("tPA", (res.Window(-1, INF),))
    (entry,) = always.states[0].entry_actions
    assert entry.guard == ex.TRUE
    assert entry.action == Assign("RES.tPA", ex.TRUE)
    never = res.synthesize_resource_chart("r", ())
    (entry,) = never.states[0].entry_actions
    assert entry.guard == ex.TRUE
    assert entry.action == Assign("RES.r", ex.FALSE)


def test_resource_chart_multiwindow_regions():
    windows = (res.Window(60, 120), res.Window(240, 480))
    regions = res.availability_regions(windows)
    assert regions == [
        (-1, 60, False),
        (60, 120, True),
        (120, 240, False),
        (240, 480, True),
        (480, INF, False),
    ]
    chart = res.synthesize_resource_chart("r", windows)
    assert _entry_surface(chart) == [
        "entry[curT>60 && curT<=120]/ RES.r = true",
        "entry[curT>240 && curT<=480]/ RES.r = true",
        "entry[curT<=60]/ RES.r = false",
        "entry[curT>120 && curT<=240]/ RES.r = false",
        "entry[curT>480]/ RES.r = false",
    ]


def test_entry_guards_exhaustive_and_exclusive():
    rng = random.Random(31)
    for _ in range(60):
        windows = gen_windows(rng, 300)
        chart = res.synthesize_resource_chart("r", windows)
        (state,) = chart.states
        # exactly one guard holds for every integer clock value
        for t in range(-5, 320):
            holding = [
                ga for ga in state.entry_actions if ex.eval_expr(ga.guard, {"curT": t})
            ]
            assert len(holding) == 1, (windows, t)
            # on reachable clock values the assigned flag tracks the windows
            if t >= 0:
                (ga,) = holding
                assert ga.action.value.value == res.is_available(windows, t)


def test_availability_regions_reject_overlap():
    with pytest.raises(ValueError, match="overlap"):
        res.availability_regions((res.Window(0, 10), res.Window(5, 20)))


def test_raise_free_charts():
    # synthesized charts only assign; they never raise events
    chart = res.synthesize_resource_chart("r", (res.Window(1, 2),))
    for state in chart.states:
        assert all(isinstance(ga.action, Assign) for ga in state.entry_actions)
    assert all(not isinstance(a, Raise) for t in chart.transitions for a in t.actions)
