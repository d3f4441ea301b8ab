"""Tests of the benchmark's own code: inputs from seeds, and the checkers.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools

import pytest

import checks
import specs


def _requests(seed, client=0, count=300):
    return list(itertools.islice(specs.request_sequence(seed, client), count))


def test_same_seed_gives_same_requests_and_split():
    first, second = _requests(7), _requests(7)
    assert first == second
    assert [kind for kind, _, _ in first] == [kind for kind, _, _ in second]


def test_different_seed_or_client_gives_different_order():
    assert _requests(7) != _requests(8)
    assert _requests(7, client=0) != _requests(7, client=1)


def test_warm_requests_repeat_earlier_cold_ones():
    seen = set()
    for kind, spec, name in _requests(3, count=1000):
        if kind == "cold":
            assert name not in seen
            seen.add(name)
        else:
            assert name in seen
        assert spec in specs.SERVICE_SPECS
    warm = sum(kind == "warm" for kind, _, _ in _requests(3, count=1000))
    assert 0.6 < warm / 1000 < 0.8


def test_shuffle_is_a_seeded_permutation():
    names = [spec.name for spec in specs.table2_specs()]
    order = [spec.name for spec in specs.shuffled(specs.table2_specs(), 5)]
    assert sorted(order) == sorted(names)
    assert order == [spec.name for spec in specs.shuffled(specs.table2_specs(), 5)]
    assert order != [spec.name for spec in specs.shuffled(specs.table2_specs(), 6)]


def test_renamed_spec_parses_under_the_new_name():
    from repro.stg.parser import parse_g

    spec = specs.service_specs()["vme2int"]
    assert parse_g(specs.renamed(spec, "vme2int.c0.4")).name == "vme2int.c0.4"


@pytest.fixture(scope="module")
def solved():
    """vme2int solved at library settings, with its initial CSC pair count."""
    from repro.core.csc import csc_conflicts
    from repro.core.solver import solve_csc
    from repro.stg.parser import parse_g
    from repro.stg.state_graph import build_state_graph

    spec = specs.service_specs()["vme2int"]
    sg = build_state_graph(parse_g(spec.g_text))
    result = solve_csc(sg, spec.settings())
    assert result.solved
    return result, len(csc_conflicts(sg))


def test_checks_accept_an_honest_result(solved):
    result, conflicts = solved
    checks.check_final_graph(result, conflicts)
    assert checks.csc_pair_count(result.initial_sg) == conflicts == 1


def test_flipped_code_bit_is_rejected(solved):
    result, conflicts = solved
    final = result.final_sg.copy()
    state = final.initial_state
    code = list(final.encoding[state])
    code[-1] = 1 - code[-1]
    final.encoding[state] = tuple(code)
    with pytest.raises(checks.CheckFailed):
        checks.check_final_graph(dataclasses.replace(result, final_sg=final), conflicts)


def test_wrong_reported_conflict_count_is_rejected(solved):
    result, conflicts = solved
    with pytest.raises(checks.CheckFailed):
        checks.check_final_graph(result, conflicts + 1)


def test_visible_inserted_signal_breaks_trace_equivalence(solved):
    result, conflicts = solved
    # Without its insertion records the csc signal is no longer hidden.
    with pytest.raises(checks.CheckFailed):
        checks.check_final_graph(dataclasses.replace(result, records=[]), conflicts)


def test_wrong_solved_flag_is_rejected(solved):
    result, conflicts = solved
    with pytest.raises(checks.CheckFailed):
        checks.check_final_graph(
            dataclasses.replace(result, solved=False, conflicts_remaining=1), conflicts
        )


def test_wrong_census_count_is_rejected():
    checks.check_census("pipe", 2, 36)
    checks.check_census("par", 3, 18)
    checks.check_census("pipeline", 3, 150)
    with pytest.raises(checks.CheckFailed):
        checks.check_census("pipe", 2, 35)


def test_unverified_netlist_is_rejected(solved):
    from repro.synth import synthesize

    result, _ = solved
    netlist = synthesize(result.final_sg)
    checks.check_synth(netlist)
    with pytest.raises(checks.CheckFailed):
        checks.check_synth(dataclasses.replace(netlist, verified=False))


def test_service_answer_to_another_request_is_rejected(solved):
    result, _ = solved
    summary = result.summary()
    checks.check_service_summary(summary, "vme2int")
    with pytest.raises(checks.CheckFailed):
        checks.check_service_summary(summary, "vme2int.c1.9")
    with pytest.raises(checks.CheckFailed):
        checks.check_service_summary(dict(summary, inserted=0), "vme2int")


def test_verdict_hash_ignores_timing_and_name_only(solved):
    result, _ = solved
    summary = result.summary()
    same = dict(summary, cpu_seconds=123.0, name="other")
    assert checks.verdict_hash(summary) == checks.verdict_hash(same)
    assert checks.verdict_hash(summary) != checks.verdict_hash(dict(summary, states_after=0))


def test_printed_metrics_match_the_declaration():
    import json
    from pathlib import Path

    import run

    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for section, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[section]} == printed


def test_verdict_changes_compare_observed_fields():
    pinned = {"a": {"fingerprint_sha256": "x", "inserted": ["csc0"], "literals": 4}}
    assert checks.verdict_changes({"a": {"fingerprint_sha256": "x"}}, pinned) == []
    assert checks.verdict_changes({"a": {"literals": 5}}, pinned) == ["a"]
    assert checks.verdict_changes({"b": {}}, pinned) == ["b"]
