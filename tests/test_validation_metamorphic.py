"""Metamorphic checks: transformed inputs, predictable outputs."""

import dataclasses

import pytest

from repro.network import reset_flow_ids
from repro.validation import (
    ScenarioGenerator,
    build_flows,
    build_topology,
    check_component_isolation,
    check_idle_job_noop,
    check_rate_scaling,
    check_unused_link_noop,
)
from repro.validation.metamorphic import (
    _batch_finish,
    _engine_finish,
    _isolated_job,
)


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


def _batch_specs(seed, count=3):
    """Batch-profile specs (index 0 mod the cycle) from one seed."""
    from repro.validation.scenarios import PROFILES
    generator = ScenarioGenerator(seed)
    return [generator.spec(index * len(PROFILES))
            for index in range(count)]


class TestRateScaling:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_power_of_two_scaling_is_exact(self, seed):
        for spec in _batch_specs(seed):
            assert check_rate_scaling(spec, k=2.0) == []

    def test_non_power_of_two_within_tolerance(self):
        spec = _batch_specs(7, count=1)[0]
        assert check_rate_scaling(spec, k=1.7) == []

    def test_quarter_rate_scaling(self):
        spec = _batch_specs(3, count=1)[0]
        assert check_rate_scaling(spec, k=0.25) == []

    def test_scaling_comparison_has_teeth(self):
        """Scaling only the fabric (not the expectation) must fire."""
        spec = _batch_specs(7, count=1)[0]
        base = _batch_finish(spec)
        doubled = _batch_finish(spec, scale=2.0)
        assert base != doubled  # halved times: the transform is real


class TestIdleJob:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_zero_size_flows_change_nothing(self, seed):
        for spec in _batch_specs(seed):
            assert check_idle_job_noop(spec) == []


class TestUnusedLink:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_killing_idle_access_link_changes_nothing(self, seed):
        for spec in _batch_specs(seed):
            assert check_unused_link_noop(spec) == []

    def test_killing_a_used_link_does_change_results(self):
        """Sanity that the no-op check is not vacuous: failing a link
        a flow actually crosses rehashes its path (or changes its
        share), which the same comparison would flag."""
        spec = _batch_specs(7, count=1)[0]
        from repro.network import Fabric
        topo = build_topology(spec)
        fabric = Fabric(topo)
        flows = build_flows(spec)
        paths = fabric.resolve_paths(flows)
        victim = paths[flows[0].flow_id].link_ids[0]
        base = _batch_finish(spec)
        rerouted = _batch_finish(spec, fail_link_id=victim)
        assert base != rerouted


def _timed_specs(seed, count=6):
    """Timed- and degrade-profile specs (staggered starts) of one seed."""
    from repro.validation.scenarios import PROFILES
    generator = ScenarioGenerator(seed)
    return [generator.spec(offset + index * len(PROFILES))
            for index in range(count) for offset in (1, 2)]


class TestComponentIsolation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_link_disjoint_job_moves_no_finish_time(self, seed):
        for spec in _timed_specs(seed):
            assert check_component_isolation(spec) == [], spec.index

    def test_job_is_disjoint_and_overlaps_the_run(self):
        """The appended job is not vacuous: it shares no directed hop
        with any spec flow and starts while they are in flight."""
        from repro.network import Fabric
        spec = _timed_specs(2, count=1)[0]
        base = _engine_finish(spec)
        job = _isolated_job(spec, max(base.values()))
        assert job is not None
        assert 0.0 <= job.start_s < max(base.values())
        fabric = Fabric(build_topology(spec))
        used = {hop for path in
                fabric.resolve_paths(build_flows(spec)).values()
                for hop in fabric.directed_hops(path)}
        job_path = fabric.router.path(
            build_flows(dataclasses.replace(
                spec, flows=spec.flows + [job]))[-1])
        assert used.isdisjoint(fabric.directed_hops(job_path))
