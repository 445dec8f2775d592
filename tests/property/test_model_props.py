"""Property-based tests for LPC model invariants: classification totality,
lease safety, session exclusivity, matching bounds."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.concerns import TOPIC_LAYERS, ConcernClassifier
from repro.core.layers import Layer
from repro.discovery.leases import LeaseTable
from repro.kernel.errors import SessionError
from repro.kernel.scheduler import Simulator
from repro.resource.faculties import FacultyProfile
from repro.resource.matching import match
from repro.resource.platform import (
    ExecutionSpec,
    MemorySpec,
    NetSpec,
    PlatformProfile,
    StorageSpec,
    UISpec,
)
from repro.user.mental import completion_probability, step_success_probability

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(st.sampled_from(sorted(TOPIC_LAYERS)), st.text(max_size=60))
@settings(max_examples=60, deadline=None)
def test_known_topics_always_classify(topic, text):
    classifier = ConcernClassifier()
    layer = classifier.classify(topic, text)
    assert isinstance(layer, Layer)
    assert layer == TOPIC_LAYERS[topic]  # topic wins over any text


faculty_profiles = st.builds(
    FacultyProfile,
    name=st.just("u"),
    languages=st.just(("en",)),
    gui_literacy=unit, technical_skill=unit, domain_knowledge=unit,
    frustration_tolerance=unit, learning_rate=unit)


@given(faculty_profiles, st.integers(min_value=1, max_value=20), unit)
@settings(max_examples=60, deadline=None)
def test_burden_probabilities_are_probabilities(user, burden, intuitiveness):
    p_step = step_success_probability(burden, user, intuitiveness)
    p_done = completion_probability(burden, user, intuitiveness, retries=0)
    assert 0.0 <= p_step <= 1.0
    assert 0.0 <= p_done <= 1.0
    # Without retries, completing all steps is never easier than one step.
    assert p_done <= p_step + 1e-12


@given(faculty_profiles, st.integers(min_value=1, max_value=18))
@settings(max_examples=40, deadline=None)
def test_completion_monotone_decreasing_in_burden(user, burden):
    p_small = completion_probability(burden, user)
    p_large = completion_probability(burden + 1, user)
    assert p_large <= p_small + 1e-12


platforms = st.builds(
    PlatformProfile,
    name=st.just("p"),
    memory=st.builds(MemorySpec, ram_mb=st.floats(min_value=1, max_value=512)),
    storage=st.builds(StorageSpec,
                      capacity_mb=st.floats(min_value=1, max_value=10000),
                      flexible_organization=st.booleans(),
                      throughput_mbps=st.floats(min_value=0.1, max_value=100)),
    execution=st.builds(ExecutionSpec,
                        mips=st.floats(min_value=1, max_value=1000),
                        multitasking=st.booleans(),
                        abortable=st.booleans()),
    ui=st.builds(UISpec, kind=st.sampled_from(["gui", "text", "buttons",
                                               "voice"]),
                 languages=st.sampled_from([("en",), ("fr",), ("en", "fr")]),
                 consistent_metaphors=st.booleans(),
                 intuitiveness=unit),
    net=st.builds(NetSpec, technologies=st.just(("802.11b",)),
                  auto_configuring=st.booleans(),
                  requires_admin=st.booleans()))


@given(platforms, faculty_profiles)
@settings(max_examples=60, deadline=None)
def test_matching_score_bounded_and_consistent(platform, user):
    report = match(platform, user)
    assert 0.0 <= report.score <= 1.0
    # `usable` is exactly "no blocking frustration".
    assert report.usable == all(f.severity < 0.9 for f in report.frustrations)
    for frustration in report.frustrations:
        assert 0.0 < frustration.severity <= 1.0


@given(st.lists(st.tuples(st.floats(min_value=0.5, max_value=20.0),
                          st.booleans()),
                min_size=1, max_size=15))
@settings(max_examples=30, deadline=None)
def test_lease_table_never_holds_expired_leases_after_sweep(grants):
    sim = Simulator(seed=1)
    table = LeaseTable(sim, sweep_interval=0.25)
    for duration, cancel in grants:
        lease = table.grant("h", "r", duration)
        if cancel:
            table.cancel(lease.lease_id)
    sim.run(until=25.0)
    now = sim.now
    for lease in table.live():
        assert not lease.expired(now)
    # Everything granted either expired or was cancelled by t=25.
    assert len(table) == 0


@given(st.lists(st.sampled_from(["acquire", "release", "expire"]),
                min_size=1, max_size=30),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_session_exclusivity_invariant(operations, seed):
    """No interleaving of acquire/release/expiry ever yields two holders."""
    from repro.services.sessions import SessionManager

    sim = Simulator(seed=seed, trace=False)
    manager = SessionManager(sim, "resource", sweep_interval=0.5)
    tokens = {}
    holders = set()
    for op in operations:
        if op == "acquire":
            owner = f"user{len(tokens)}"
            try:
                session = manager.acquire(owner, 5.0)
                tokens[owner] = session.token
            except SessionError:
                pass
        elif op == "release" and tokens:
            owner, token = next(iter(tokens.items()))
            manager.release(token)
            del tokens[owner]
        else:  # let time pass; leases may expire
            sim.run(until=sim.now + 3.0)
        if manager.holder is not None:
            holders.add(manager.holder)
        # The invariant: at most one live holder at any time, and a valid
        # holder implies the manager is not simultaneously available.
        assert (manager.holder is None) == manager.available
