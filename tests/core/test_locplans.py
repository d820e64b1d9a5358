"""The shared plan driver: completion, suspects, and the step cut-off."""

from repro.core.locplans import drive_plan, make_plan


def _measure_faulty_link(link: int):
    calls: list[tuple[int, int]] = []

    def measure(i: int, j: int) -> bool:
        calls.append((i, j))
        return i <= link < j

    return measure, calls


def _binary_cost() -> int:
    measure, calls = _measure_faulty_link(5)
    assert drive_plan(make_plan("binary", 8), measure) == [("link", 5)]
    return len(calls)


def test_plan_using_exactly_max_steps_keeps_its_suspects():
    steps = _binary_cost()
    measure, calls = _measure_faulty_link(5)
    suspects = drive_plan(make_plan("binary", 8), measure, max_steps=steps)
    assert suspects == [("link", 5)]
    assert len(calls) == steps


def test_plan_past_max_steps_ends_with_no_suspects():
    steps = _binary_cost()
    measure, calls = _measure_faulty_link(5)
    suspects = drive_plan(make_plan("binary", 8), measure, max_steps=steps - 1)
    assert suspects == []
    assert len(calls) == steps - 1


def test_zero_length_plan_measures_nothing():
    measure, calls = _measure_faulty_link(0)
    assert drive_plan(make_plan("linear", 0), measure, max_steps=0) == []
    assert calls == []
