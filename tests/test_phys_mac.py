"""Tests for the wireless medium and CSMA/CA MAC."""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.env.radio import RATE_BY_NAME
from repro.env.spectrum import overlap_factor
from repro.env.world import World
from repro.kernel.errors import ConfigurationError
from repro.net.addresses import BROADCAST
from repro.net.frames import Frame
from repro.phys import mac as phys_mac
from repro.phys.mac import ACK_S, PREAMBLE_S, CsmaMac, WirelessMedium


def _station(sim, world, medium, name, xy, **kwargs):
    world.place(name, xy)
    return CsmaMac(sim, medium, name, **kwargs)


def test_attach_requires_placement(sim, world, medium):
    with pytest.raises(ConfigurationError):
        CsmaMac(sim, medium, "ghost")


def test_duplicate_attach_rejected(sim, world, medium):
    _station(sim, world, medium, "a", (0, 0))
    with pytest.raises(ConfigurationError):
        CsmaMac(sim, medium, "a")


@pytest.mark.parametrize("kwargs", [
    {"tx_power_dbm": math.nan},
    {"tx_power_dbm": math.inf},
    {"cs_threshold_dbm": math.nan},
    {"cs_threshold_dbm": -math.inf},
])
def test_non_finite_radio_parameters_rejected(sim, world, medium, kwargs):
    """A NaN tx power gave a 0.1 m culling radius, and a NaN carrier-sense
    threshold never sensed carrier."""
    world.place("a", (0, 0))
    with pytest.raises(ConfigurationError):
        CsmaMac(sim, medium, "a", **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"fer_target": math.nan},
    {"fer_target": -1.0},
    {"fer_target": 1.5},
    {"queue_limit": math.nan},
    {"queue_limit": 8.5},
    {"retry_limit": math.nan},
    {"retry_limit": 2.5},
    {"retry_limit": True},
], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
def test_parameters_that_disable_the_mac_rejected(sim, world, medium,
                                                  kwargs):
    """A NaN or negative FER target made rate adaptation send a 2 m link
    at 1 Mb/s, a NaN queue limit never dropped, and a NaN retry limit
    never retried a lost unicast."""
    world.place("a", (0, 0))
    with pytest.raises(ConfigurationError):
        CsmaMac(sim, medium, "a", **kwargs)


def test_unicast_delivery_close_range(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    b = _station(sim, world, medium, "b", (15, 10))
    got = []
    b.on_receive = got.append
    a.send(Frame("a", "b", "hello", 100))
    sim.run(until=1.0)
    assert len(got) == 1
    assert got[0].payload == "hello"
    assert a.stats["tx_success"] == 1


def test_no_delivery_out_of_range(sim, world, medium):
    world2 = type(world)(10000, 100)
    medium2 = WirelessMedium(sim, world2)
    world2.place("a", (0, 50))
    world2.place("b", (5000, 50))
    a = CsmaMac(sim, medium2, "a")
    b = CsmaMac(sim, medium2, "b")
    got = []
    b.on_receive = got.append
    a.send(Frame("a", "b", None, 100))
    sim.run(until=5.0)
    assert got == []
    assert a.stats["tx_retry_drops"] == 1


def test_broadcast_reaches_all_cochannel(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    b = _station(sim, world, medium, "b", (12, 10))
    c = _station(sim, world, medium, "c", (14, 10))
    hits = []
    b.on_receive = lambda f: hits.append("b")
    c.on_receive = lambda f: hits.append("c")
    a.send(Frame("a", BROADCAST, None, 64, kind="mgmt"))
    sim.run(until=1.0)
    assert sorted(hits) == ["b", "c"]


def test_broadcast_not_heard_on_orthogonal_channel(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10), channel=1)
    b = _station(sim, world, medium, "b", (12, 10), channel=11)
    got = []
    b.on_receive = got.append
    a.send(Frame("a", BROADCAST, None, 64, kind="mgmt"))
    sim.run(until=1.0)
    assert got == []


def test_unicast_to_other_channel_fails(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10), channel=1)
    b = _station(sim, world, medium, "b", (12, 10), channel=11)
    a.send(Frame("a", "b", None, 100))
    sim.run(until=2.0)
    assert b.stats["rx_frames"] == 0
    assert a.stats["tx_retry_drops"] == 1


def test_queue_limit_drops(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10), queue_limit=2)
    _station(sim, world, medium, "b", (12, 10))
    results = [a.send(Frame("a", "b", None, 1000)) for _ in range(5)]
    assert results.count(False) >= 2
    assert a.stats["queue_drops"] >= 2


def test_queue_drains_in_order(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    b = _station(sim, world, medium, "b", (12, 10))
    got = []
    b.on_receive = lambda f: got.append(f.payload)
    for i in range(5):
        a.send(Frame("a", "b", i, 200))
    sim.run(until=2.0)
    assert got == [0, 1, 2, 3, 4]


def test_rate_adaptation_close_picks_11mbps(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    _station(sim, world, medium, "b", (13, 10))
    rate = a.select_rate(Frame("a", "b", None, 1000))
    assert rate.name == "11Mbps"


def test_rate_adaptation_far_picks_slower(sim, world, medium):
    world2 = type(world)(500, 100)
    medium2 = WirelessMedium(sim, world2)
    medium2.propagation.shadowing_sigma_db = 0.0
    world2.place("a", (0, 50))
    world2.place("b", (150, 50))
    a = CsmaMac(sim, medium2, "a")
    CsmaMac(sim, medium2, "b")
    rate = a.select_rate(Frame("a", "b", None, 1000))
    assert rate.bits_per_second < 11e6


def test_broadcast_uses_base_rate(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    rate = a.select_rate(Frame("a", BROADCAST, None, 64, kind="mgmt"))
    assert rate.name == "1Mbps"


def test_fixed_rate_respected(sim, world, medium):
    pinned = RATE_BY_NAME["2Mbps"]
    a = _station(sim, world, medium, "a", (10, 10), fixed_rate=pinned)
    _station(sim, world, medium, "b", (12, 10))
    assert a.select_rate(Frame("a", "b", None, 100)) is pinned


def test_carrier_sense_defers(sim, world, medium):
    """While one long transmission is on the air, a second sender backs off
    instead of colliding (both are in carrier-sense range)."""
    a = _station(sim, world, medium, "a", (10, 10))
    b = _station(sim, world, medium, "b", (12, 10))
    c = _station(sim, world, medium, "c", (14, 10))
    got = []
    c.on_receive = lambda f: got.append(f.src)
    # a transmits a large frame; b tries during a's airtime.
    a.send(Frame("a", "c", None, 1400))
    b.send(Frame("b", "c", None, 1400))
    sim.run(until=2.0)
    assert sorted(got) == ["a", "b"]  # both eventually delivered
    assert a.stats["tx_success"] == 1 and b.stats["tx_success"] == 1


def test_half_duplex_self_busy(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    _station(sim, world, medium, "b", (12, 10))
    a.send(Frame("a", "b", None, 1400))
    sim.run(max_events=1)  # the DIFS-deferred attempt starts transmitting
    assert medium.busy_for(a)


def test_retry_limit_and_drop_issue(sim, world, medium):
    world2 = type(world)(10000, 100)
    medium2 = WirelessMedium(sim, world2)
    world2.place("a", (0, 50))
    world2.place("b", (9000, 50))
    a = CsmaMac(sim, medium2, "a", retry_limit=2)
    CsmaMac(sim, medium2, "b")
    a.send(Frame("a", "b", None, 500))
    sim.run(until=10.0)
    assert a.stats["tx_retry_drops"] == 1
    issues = sim.tracer.select("issue.radio")
    assert len(issues) == 1


def test_set_channel(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    a.set_channel(11)
    assert a.channel == 11
    with pytest.raises(ConfigurationError):
        a.set_channel(13)


def test_hidden_terminal_collisions(sim, world):
    """Two low-power senders out of carrier-sense range of each other but
    both audible at a middle receiver: decode failures occur."""
    big = type(world)(200, 20)
    medium2 = WirelessMedium(sim, big)
    medium2.propagation.shadowing_sigma_db = 0.0
    big.place("left", (0, 10))
    big.place("right", (120, 10))
    big.place("mid", (60, 10))
    left = CsmaMac(sim, medium2, "left", tx_power_dbm=5.0)
    right = CsmaMac(sim, medium2, "right", tx_power_dbm=5.0)
    mid = CsmaMac(sim, medium2, "mid", tx_power_dbm=5.0)
    # They cannot hear each other...
    assert not medium2.busy_for(right)
    # ...and both hammer the middle station with near-synchronous traffic.
    sim.every(0.01, lambda: left.send(Frame("left", "mid", None, 1400)))
    sim.every(0.0101, lambda: right.send(Frame("right", "mid", None, 1400)))
    sim.run(until=5.0)
    assert medium2.total_decode_failures > 0


def _broadcaster(sim, world, medium, log, name, xy, period, start, size,
                 **kwargs):
    """``_station`` that broadcasts a ``size``-byte frame every ``period``
    from ``start`` and logs each delivery to it as ``(time, src, name)``."""
    mac = _station(sim, world, medium, name, xy, **kwargs)
    mac.on_receive = lambda frame: log.append((sim.now, frame.src, name))
    sim.every(period, lambda: mac.send(Frame(name, BROADCAST,
                                             payload_bytes=size)),
              start=start)
    return mac


def _outcome_sha256(logs, macs):
    """sha256 of delivery logs plus every MAC's stats."""
    text = json.dumps({"logs": logs, "stats": [mac.stats for mac in macs]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: ``_outcome_sha256`` of
#: ``test_two_media_on_one_simulator_share_the_delivery_stream``,
#: recorded while every delivery draw was a ``Generator.random()`` call.
TWO_MEDIA_SHA256 = (
    "fa855cdec1a7ceeba2e822ee22d30f80e063a1ce756d3a4971b44ddb64211b54")


def test_two_media_on_one_simulator_share_the_delivery_stream(sim):
    """Two busy broadcast groups in separate worlds on one simulator:
    without ``per_station_rng`` both media draw from the simulator's
    ``radio.delivery`` stream, and their draws interleave in frame-end
    order.  A medium that buffered that stream for itself would hand
    each decode a different double."""
    logs, macs, media = [], [], []
    for group in range(2):
        world = World(60.0, 30.0)
        medium = WirelessMedium(sim, world)
        log = []
        macs += [_broadcaster(sim, world, medium, log, f"g{group}-{i}",
                              (2.0 + 10.0 * i, 5.0 + 8.0 * (i % 3)),
                              0.02 + 0.003 * group,
                              0.0013 * i + 0.0007 * group, 200,
                              tx_power_dbm=-10.0)
                 for i in range(6)]
        logs.append(log)
        media.append(medium)
    sim.run(until=2.0)
    for medium in media:  # both media decode, and draws decide outcomes
        assert medium.total_deliveries > 0
        assert medium.total_decode_failures > 0
    assert _outcome_sha256(logs, macs) == TWO_MEDIA_SHA256


def _jammer_room(sim, channels):
    """Four stations on channel 6 whose 200-byte broadcasts never overlap
    each other, plus one 1400-byte broadcaster at +10 dBm per entry of
    ``channels``, tuned to it, that keeps a frame on the air nearly all
    the time; nobody defers (the carrier-sense threshold is out of
    reach).  Returns the medium, the delivery log and every MAC."""
    world = World(200.0, 40.0)
    medium = WirelessMedium(sim, world)
    log = []
    macs = [_broadcaster(sim, world, medium, log, f"r{i}",
                         (10.0 + 3.0 * i, 10.0 + 2.0 * i), 0.011, 0.0027 * i,
                         200, channel=6, tx_power_dbm=-10.0,
                         cs_threshold_dbm=100.0)
            for i in range(4)]
    macs += [_broadcaster(sim, world, medium, log, f"j{i}",
                          (60.0 + 12.0 * (i % 12),
                           5.0 + 3.0 * (i % 12) + 0.5 * (i // 12)),
                          0.0125, 0.0011 * i, 1400, channel=channel,
                          tx_power_dbm=10.0, cs_threshold_dbm=100.0)
             for i, channel in enumerate(channels)]
    return medium, log, macs


#: ``_outcome_sha256`` of
#: ``test_many_in_band_interferers_keep_their_outcomes``, recorded before
#: the per-frame interferer view existed, while a decode with eight or
#: more in-band interferers summed them in one NumPy call.
MANY_INTERFERERS_SHA256 = (
    "d041c6e95b6bcca4910ad4823499fbc21e52bd6ff27f9982720cca07a49b37ab")


def test_many_in_band_interferers_keep_their_outcomes(sim):
    """Ten jammers on the adjacent channels 3 and 9 keep about nine
    frames on the air, in band for the four stations on channel 6.
    Nearly every SINR evaluation sums at least eight interferers (a
    repeated interference pattern reuses its receivers' evaluations, so
    the spy sees each once), and with SINRs near the decode edge the
    outcomes pin that sum."""
    medium, log, macs = _jammer_room(sim, [(3, 9)[i % 2] for i in range(10)])
    sums = []
    evaluate = medium._evaluate
    medium._evaluate = lambda tx, rx: (sums.append(sum(
        overlap_factor(rx.channel, other.channel) > 0.0
        for other in tx.interferers)) or evaluate(tx, rx))
    sim.run(until=1.0)
    assert sum(n >= 8 for n in sums) > len(sums) // 2
    assert medium.total_deliveries > 0 and medium.total_decode_failures > 0
    assert _outcome_sha256([log], macs) == MANY_INTERFERERS_SHA256


def test_interference_sum_runs_in_interferer_order(sim, monkeypatch):
    """Every evaluated interference sum is the left-to-right float sum of
    its in-band terms in ``tx.interferers`` order, however many there
    are.  Twenty-four jammers on channels 3, 4, 8 and 9 put 16 or more
    in-band interferers on most decodes; a sum that reorders its terms
    (pairwise, or in blocks) differs from this one in the last bits."""
    medium, _log, _macs = _jammer_room(
        sim, [(3, 4, 8, 9)[i % 4] for i in range(24)])
    decoding = []  # the (tx, rx) of the evaluation running now
    sums = []  # (tx, rx, interference_mw) of each one that got a SINR
    evaluate = medium._evaluate

    def spy_evaluate(tx, rx):
        decoding.append((tx, rx))
        try:
            return evaluate(tx, rx)
        finally:
            decoding.pop()

    sinr_from_mw = phys_mac.sinr_from_mw

    def spy_sinr(signal_mw, interference_mw, *args):
        if decoding:
            sums.append((*decoding[-1], interference_mw))
        return sinr_from_mw(signal_mw, interference_mw, *args)

    medium._evaluate = spy_evaluate
    monkeypatch.setattr(phys_mac, "sinr_from_mw", spy_sinr)
    sim.run(until=1.0)
    assert sum(len(tx.in_band) >= 16 for tx, _, _ in sums) > len(sums) // 2
    terms = medium.link_cache.terms
    mismatched = 0
    for tx, rx, interference_mw in sums:
        expected = 0.0
        for address, power_dbm, factor in tx.in_band:
            loss, shadow = terms(address, rx.address)
            expected += 10.0 ** ((power_dbm - loss - shadow) / 10.0) * factor
        mismatched += interference_mw != expected
    assert mismatched == 0, f"{mismatched} of {len(sums)} sums reordered"


def _pattern(tx):
    """What the receive table's pattern memo keys ``tx`` on."""
    return (tx.rate.name, tx.frame.wire_bytes, tx.channel,
            tuple((other.sender.address, other.channel, other.power_dbm)
                  for other in tx.interferers))


#: When the periodic room's move, retune and power change happen (s).
_MOVE_AT, _RETUNE_AT, _POWER_AT = 0.3, 0.5, 0.7


def _periodic_room(culling, evaluations=None):
    """Six stations that broadcast 500-byte frames every 20 ms without
    sensing carrier, so each sender's frames overlap the same others'
    frames period after period, three of them weaker so that some
    receivers decode near the edge, and a silent bystander too far away
    to be heard.  The bystander moves, then retunes, and then one sender's
    power changes.  With ``evaluations``, every SINR evaluation is logged
    to it as ``(time, sender, pattern, receiver, by_decode)``.  Returns
    the deliveries, the MAC stats, the ``mac.loss`` records, the delivery
    and failure totals and the medium."""
    from repro.kernel.scheduler import Simulator

    sim = Simulator(seed=21, trace=True)
    world = World(600.0, 60.0)
    medium = WirelessMedium(sim, world, culling=culling)
    if evaluations is not None:
        evaluate, decode = medium._evaluate, medium._decode
        decoding = []

        def spy_evaluate(tx, rx):
            evaluations.append((sim.now, tx.sender.address, _pattern(tx),
                                rx.address, bool(decoding)))
            return evaluate(tx, rx)

        def spy_decode(tx, rx):
            decoding.append(rx)
            try:
                return decode(tx, rx)
            finally:
                decoding.pop()

        medium._evaluate, medium._decode = spy_evaluate, spy_decode
    log = []
    macs = []
    for i, (x, y, channel, power) in enumerate((
            (5, 5, 6, -12.0), (15, 9, 6, -12.0), (25, 4, 6, -12.0),
            (40, 30, 3, -20.0), (55, 28, 6, -22.0), (45, 50, 6, -20.0))):
        mac = _station(sim, world, medium, f"b{i}", (x, y), channel=channel,
                       tx_power_dbm=power, cs_threshold_dbm=100.0)
        mac.on_receive = (lambda frame, rx=mac.address:
                          log.append((sim.now, frame.src, rx)))
        sim.every(0.02, lambda m=mac: m.send(Frame(
            m.address, BROADCAST, payload_bytes=500,
            frame_id=sim.next_seq("frame"))), start=0.0031 * i)
        macs.append(mac)
    bystander = _station(sim, world, medium, "far", (590.0, 50.0),
                         channel=11)
    sim.schedule(_MOVE_AT, world.move, "far", (590.0, 10.0))
    sim.schedule(_RETUNE_AT, setattr, bystander, "channel", 1)
    sim.schedule(_POWER_AT, setattr, macs[0], "tx_power_dbm", -10.0)
    sim.run(until=0.9)
    losses = [(r.time, r.source, r.message, r.data)
              for r in sim.tracer.select("mac.loss")]
    return (sorted(log), [dict(mac.stats) for mac in macs + [bystander]],
            losses, medium.total_deliveries, medium.total_decode_failures,
            medium)


def test_repeated_patterns_are_evaluated_once_per_epoch():
    """A static periodic broadcast room repeats its interference patterns
    frame after frame.  The receive table's pattern memo evaluates each
    (sender, pattern, receiver) once per topology epoch, and again after
    a move (which re-keys the tables), a retune (which rebuilds them) and
    a power change (which rebuilds the sender's).  Deliveries, MAC stats
    and the traced ``mac.loss`` records equal the exhaustive scan's."""
    evaluations = []
    *culled, medium = _periodic_room(True, evaluations)
    *exhaustive, _ = _periodic_room(False)
    assert culled == exhaustive
    deliveries, _stats, losses, delivered, failed = culled
    assert deliveries and losses
    # The bystander was inaudible, so the move re-keyed tables.
    assert not any("far" in table.names for table in medium._tables.values())
    assert medium.culling_stats()["set_builds"] < 3 * 7
    memo = [e for e in evaluations if not e[4]]
    assert 3 * len(evaluations) < delivered + failed
    segments = (0.0, _MOVE_AT, _RETUNE_AT, _POWER_AT, math.inf)
    seen = []
    for start, end in zip(segments, segments[1:]):
        pairs = [e[1:4] for e in memo if start <= e[0] < end]
        assert pairs and len(pairs) == len(set(pairs))
        seen.append(set(pairs))
    for before, after in zip(seen, seen[1:]):
        assert before & after  # evaluated again after the event
    assert any(sender == "b0" for sender, _, _ in seen[2] & seen[3])


def test_pattern_memo_stays_within_its_bound(sim):
    """A sender whose frames all differ in size never repeats a pattern
    while a jammer keeps a frame on the air.  Its table's memo stops at
    ``PATTERNS_PER_TABLE`` patterns; later frames are decoded per
    receiver, with the exhaustive scan's outcomes."""
    def run(culling):
        from repro.kernel.scheduler import Simulator

        sim = Simulator(seed=4, trace=False)
        world = World(60.0, 20.0)
        medium = WirelessMedium(sim, world, culling=culling)
        log = []
        macs = [_station(sim, world, medium, name, xy, tx_power_dbm=-15.0,
                         cs_threshold_dbm=100.0)
                for name, xy in (("s", (5.0, 5.0)), ("r1", (12.0, 6.0)),
                                 ("r2", (18.0, 4.0)), ("j", (40.0, 15.0)))]
        for mac in macs:
            mac.on_receive = (lambda frame, rx=mac.address:
                              log.append((sim.now, frame.src, rx)))
        sender, jammer = macs[0], macs[3]
        sim.every(0.0115, lambda: jammer.send(
            Frame("j", BROADCAST, payload_bytes=1400)))
        frames = 3 * phys_mac.PATTERNS_PER_TABLE
        for k in range(frames):
            sim.schedule(0.003 + 0.013 * k, sender.send,
                         Frame("s", BROADCAST, payload_bytes=100 + 7 * k))
        sim.run(until=0.013 * frames + 0.05)
        return (sorted(log), [dict(mac.stats) for mac in macs],
                medium.total_deliveries, medium.total_decode_failures), medium

    culled, medium = run(True)
    assert culled == run(False)[0]
    sizes = {address: len(table.patterns)
             for address, table in medium._tables.items()}
    assert max(sizes.values()) <= phys_mac.PATTERNS_PER_TABLE
    assert sizes["s"] == phys_mac.PATTERNS_PER_TABLE


def test_airtime_accounting(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    _station(sim, world, medium, "b", (12, 10))
    frame = Frame("a", "b", None, 1000)
    expected_airtime = frame.airtime(11e6, PREAMBLE_S) + ACK_S + 10e-6
    a.send(frame)
    sim.run(until=1.0)
    assert a.stats["busy_time"] == pytest.approx(expected_airtime, rel=0.01)


def test_non_promiscuous_never_overhears(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10))
    _station(sim, world, medium, "b", (14, 10))
    bystander = _station(sim, world, medium, "bystander", (12, 10))
    got = []
    bystander.on_receive = got.append
    a.send(Frame("a", "b", None, 100))
    sim.run(until=1.0)
    assert got == []


def test_channel_airtime_survey(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10), channel=6)
    _station(sim, world, medium, "b", (12, 10), channel=6)
    for _ in range(5):
        a.send(Frame("a", "b", None, 1000))
    sim.run(until=2.0)
    assert medium.channel_airtime.get(6, 0.0) > 0.0
    assert medium.channel_airtime.get(1, 0.0) == 0.0


def test_scan_and_select_moves_off_congested_channel(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10), channel=6)
    b = _station(sim, world, medium, "b", (12, 10), channel=6)
    jammer = _station(sim, world, medium, "jam", (20, 10), channel=6)
    _station(sim, world, medium, "jam-rx", (22, 10), channel=6)
    sim.every(0.01, lambda: jammer.send(Frame("jam", "jam-rx", None, 1400)))
    sim.run(until=5.0)
    choice = a.scan_and_select()
    assert choice != 6
    assert a.channel == choice
    # Retune is traced for the analysis layer.
    assert sim.tracer.select("mac.retune")


def test_scan_on_quiet_band_keeps_lowest_channel(sim, world, medium):
    a = _station(sim, world, medium, "a", (10, 10), channel=1)
    assert a.scan_and_select() == 1
