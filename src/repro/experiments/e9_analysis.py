"""E9 — regenerating the paper's analysis section from observation.

The paper's claim for its model is that it "quickly reveals issues that
must be addressed".  We test that end to end: run the full Smart
Projector deployment through a scripted week-in-the-lab — a happy-path
talk, a forgetful presenter, a contended projector, an interference
burst, an infrastructure fault with a casual user, a non-anglophone
visitor, a voice-control trial in a noisy room — with the
:class:`~repro.core.instrument.LPCInstrument` attached, then measure how
much of the paper's own issue inventory the classified observations
cover.

The ablation answers the paper's core argument quantitatively: with the
user column removed, most of the inventory becomes invisible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.analysis import compare_with_paper
from ..core.instrument import LPCInstrument
from ..core.model import smart_projector_model
from ..env.noise import TYPICAL_LEVELS_DB, AcousticField, NoiseSource
from ..kernel.errors import SessionError
from ..kernel.trace import default_hooks_installed
from ..phys.devices import laptop_form
from ..phys.ergonomics import tether_constraint
from ..phys.human import PhysicalUser, SpeechRecognizer
from ..resource.faculties import casual_user, international_visitor
from ..resource.matching import match
from ..services.content import Animation
from ..services.errorsvc import FaultInjector, human_repair_model
from ..services.vnc import VNCViewer
from ..user.behavior import Procedure, Step, UserAgent
from ..user.goals import (
    harmony,
    presentation_goal,
    research_prototype_purpose,
)
from ..user.physiology import sample_physical_profile
from .harness import ExperimentResult, experiment
from .workloads import presentation_workflow, projector_room

if TYPE_CHECKING:
    from ..telemetry.streaming import StreamingAggregator

#: frustration topic -> issue topic used when re-emitting match() findings.
_FRUSTRATION_TOPICS = {"language": "language", "ui": "faculty",
                       "admin": "admin", "storage": "storage",
                       "execution": "execution"}


def _scripted_week(seed: int = 42, horizon: float = 240.0,
                   aggregator: Optional[StreamingAggregator] = None):
    """Build and run the incident script; returns (room, model, instrument).

    The week runs untraced: the instrument reads only ``issue.*``
    records, which the simulator records with tracing off.  Tracing
    turns on, in ``stream`` mode, only for a listener: ``aggregator``,
    attached as soon as the room is built, or the process-default hooks
    of a trace export (``--trace``/``--trace-out``).
    """
    listening = aggregator is not None or default_hooks_installed()
    room = projector_room(seed=seed, trace=listening,
                          trace_mode="stream" if listening else "store",
                          session_lease_s=20.0, registration_lease_s=30.0)
    sim = room.sim
    if aggregator is not None:
        aggregator.attach(sim)
    model = smart_projector_model()
    instrument = LPCInstrument(sim, model,
                               user_sources={"presenter", "casual-1",
                                             "visitor-1"})

    # --- Act 1: happy-path presentation (t=2..) --------------------------
    presentation_workflow(room, start_delay=2.0)

    # --- Act 2: contention — a second presenter tries to grab it --------
    def second_presenter() -> None:
        try:
            room.smart.projection_sessions.acquire("second-presenter", 20.0)
        except SessionError:
            pass  # the denial itself emits the session issue

    sim.schedule(20.0, second_presenter)

    # --- Act 3: the forgetful exit — sessions left to expire -------------
    # (the client simply never calls release; the 20 s lease sweeps it)
    def forgetful_exit() -> None:
        room.client.stop_vnc_server()  # laptop closes; sessions left behind

    sim.schedule(40.0, forgetful_exit)

    # --- Act 4: animation over the now-free radio, measured --------------
    # The classic mistake first: the viewer starts polling before anyone
    # remembered to start the VNC server on the laptop.
    def animation_trial() -> None:
        fb = room.client.fb
        Animation(sim, fb, fps=15.0, name="anim-trial").start()
        viewer = VNCViewer(sim, room.adapter, room.laptop.name,
                           room.adapter.drive_display, target_fps=15.0,
                           stall_timeout=1.0)
        viewer.start()
        # ...the presenter notices the black screen and starts the server.
        sim.schedule(4.0, room.client.start_vnc_server)

        def assess() -> None:
            achieved = viewer.achieved_fps(16.0)
            if achieved < 0.5 * 15.0:
                sim.issue("bandwidth", "experimenter",
                          f"wireless bandwidth limits animation to "
                          f"{achieved:.1f} fps of 15 offered")
            viewer.stop()

        sim.schedule(20.0, assess)

    sim.schedule(62.0, animation_trial)

    # --- Act 5: interference burst ---------------------------------------
    # Two low-power gadget pairs at opposite corners: below each other's
    # carrier-sense threshold (hidden terminals) but both audible at the
    # centre of the room — the small-cell 2.4 GHz mess the paper worries
    # about, which CSMA cannot coordinate away.
    def interference_burst() -> None:
        from ..phys.devices import Device

        before = room.medium.total_decode_failures
        corners = [((1.0, 1.0), (18.0, 12.0)),
                   ((39.0, 24.0), (22.0, 13.0))]
        # Slightly incommensurate periods so the two hidden senders drift
        # through each other's airtime instead of phase-locking apart.
        periods = (0.025, 0.0257)
        for i, (src_pos, dst_pos) in enumerate(corners):
            sender = Device(sim, room.world, f"gadget-s{i}", src_pos,
                            medium=room.medium, tx_power_dbm=0.0)
            receiver = Device(sim, room.world, f"gadget-r{i}", dst_pos,
                              medium=room.medium, tx_power_dbm=0.0)
            sim.every(periods[i], lambda s=sender, r=receiver: s.nic.send(
                r.name, None, 1200), start=0.01 + 0.003 * i)

        def assess() -> None:
            failures = room.medium.total_decode_failures - before
            if failures > 0:
                sim.issue("interference", "experimenter",
                          f"high concentration of 2.4 GHz devices caused "
                          f"{failures} decode failures in 20 s",
                          failures=failures)

        sim.schedule(20.0, assess)

    sim.schedule(85.0, interference_burst)

    # --- Act 6: infrastructure fault, casual user on duty ---------------
    injector = FaultInjector(sim)

    def registry_outage() -> None:
        fault = injector.kill_registry(room.registry)
        human_repair_model(fault, injector, sim,
                           technical_skill=casual_user().technical_skill)

    sim.schedule(110.0, registry_outage)

    # --- Act 7: users attempt the 8-step procedure ----------------------
    # A casual user (likely to abandon) and a couple of hurried lab
    # researchers (finish, but skip the optional-feeling steps — the
    # forgotten VNC server / forgotten release).
    def user_attempts() -> None:
        from ..resource.faculties import researcher

        procedure_steps = ("discover", "acquire_projection",
                           "acquire_control", "start_vnc_server",
                           "power_on", "start_projection",
                           "stop_projection", "release_all")

        def build_procedure(tag: str) -> Procedure:
            return Procedure(f"smart-projector-{tag}",
                             [Step(name, lambda: None, think_time=1.0,
                                   optional_feeling=(name in
                                                     ("start_vnc_server",
                                                      "release_all")))
                              for name in procedure_steps])

        casual_agent = UserAgent(sim, "casual-1", casual_user(),
                                 intuitiveness=0.3,
                                 consistent_metaphors=False)
        casual_agent.attempt(build_procedure("casual"))
        for i in range(3):
            lab_agent = UserAgent(sim, f"presenter-{i}", researcher(),
                                  intuitiveness=0.3,
                                  consistent_metaphors=False)
            lab_agent.attempt(build_procedure(f"lab{i}"))

    sim.schedule(130.0, user_attempts)

    # --- Act 8: static checks a design review would run ------------------
    def design_review() -> None:
        # Physical tether of the laptop-bound control.
        tether = tether_constraint(laptop_form())
        if tether:
            sim.issue("physical", "reviewer",
                      f"{tether}: controlling constrains the presenter to "
                      "its proximity")
        # Resource-layer frustrations for a non-anglophone visitor.
        report = match(room.adapter.platform, international_visitor())
        for frustration in report.frustrations:
            topic = _FRUSTRATION_TOPICS.get(frustration.aspect, "resource")
            sim.issue(topic, "reviewer", frustration.description)
        # The runtime assumption on the laptop.
        sim.issue("resource", "reviewer",
                  "projection assumes Java and a VNC runtime is present on "
                  "the user's laptop")
        # The GUI-literacy assumption baked into the laptop clients.
        if room.laptop.platform.ui.kind == "gui":
            sim.issue("faculty", "reviewer",
                      "clients assume users understand graphical user "
                      "interfaces (GUI literacy)")
        # Intentional-layer honesty.
        verdict = harmony(research_prototype_purpose(), presentation_goal(),
                          casual_user())
        if not verdict.in_harmony:
            sim.issue("intentional", "reviewer",
                      "research-oriented design purpose is not in harmony "
                      "with casual presenter goals expecting a commercial "
                      "product")
        # Voice-control forward look (physical layer).
        sim.issue("physical", "reviewer",
                  "future voice control would depend on user speech level "
                  "and clarity (human physical characteristics)")

    sim.schedule(150.0, design_review)

    # --- Act 9: voice trial in a noisy room ------------------------------
    def voice_trial() -> None:
        field = AcousticField(room.world, floor_db=38.0)
        field.add_source(NoiseSource("chatter",
                                     TYPICAL_LEVELS_DB["conversation"],
                                     social=True), (28.5, 17.5))
        world_entity = room.adapter.name
        body = sample_physical_profile(sim.rng("e9.body"), "presenter")
        recognizer = SpeechRecognizer(sim)
        snr = field.speech_snr_db(body.speech_level_db, world_entity)
        user = PhysicalUser(sim, body)
        words = ["projector", "on"] * 40
        recognizer.recognize(user.speak(words), snr)
        if recognizer.measured_wer > 0.15:
            sim.issue("noise", "experimenter",
                      f"background noise pushes voice recognition word "
                      f"error to {recognizer.measured_wer:.0%}")
        # The converse venue: a quiet cramped office (the hub's corner,
        # floor noise only) where speaking commands would dominate the
        # soundscape.
        if not field.socially_appropriate(room.hub.name,
                                          body.speech_level_db):
            sim.issue("social", "experimenter",
                      "speaking commands here would be socially "
                      "inappropriate (quiet cramped office)")

    sim.schedule(170.0, voice_trial)

    # --- Act 10: the UI-state mirror (desktop icons) ---------------------
    from ..discovery.events import EXPIRED
    from ..discovery.records import ServiceTemplate

    def icon_watch(loc) -> None:
        def on_event(event) -> None:
            if event.kind == EXPIRED:
                sim.issue("application", "laptop-ui",
                          f"desktop icon state stale: service "
                          f"{event.item.service_type} no longer available")

        room.laptop_discovery.subscribe(ServiceTemplate(), on_event,
                                        lease_duration=120.0)

    room.laptop_discovery.discover(icon_watch)

    sim.run(until=horizon)
    return room, model, instrument


@experiment("E9")
def run(seed: int = 42, horizon: float = 240.0) -> ExperimentResult:
    """Coverage of the paper's issue inventory by observed issues."""
    room, model, instrument = _scripted_week(seed, horizon)
    full = compare_with_paper(model.concerns(), include_user_column=True)
    ablated = compare_with_paper(model.concerns(), include_user_column=False)

    result = ExperimentResult(
        "E9", "observed-issue coverage of the paper's inventory",
        ["model_variant", "coverage", "covered", "total",
         "observed_concerns"])
    result.add_row(model_variant="full LPC (user in every layer)",
                   coverage=full.coverage,
                   covered=sum(i.covered for i in full.items),
                   total=len(full.items),
                   observed_concerns=len(model.concerns()))
    result.add_row(model_variant="device-only (user column removed)",
                   coverage=ablated.coverage,
                   covered=sum(i.covered for i in ablated.items),
                   total=len(ablated.items),
                   observed_concerns=len(model.concerns()))
    for layer, (covered, total) in full.coverage_by_layer().items():
        result.notes.append(f"full model, {layer.title}: {covered}/{total}")
    return result


@experiment("E9-report")
def run_report(seed: int = 42, horizon: float = 240.0) -> ExperimentResult:
    """Per-layer concern counts from the scripted run (the paper's
    analysis section as a table)."""
    room, model, instrument = _scripted_week(seed, horizon)
    counts = model.concern_counts()
    result = ExperimentResult(
        "E9-report", "observed concerns per LPC layer",
        ["layer", "concerns"])
    for layer, count in sorted(counts.items(), key=lambda kv: -kv[0]):
        result.add_row(layer=layer.title, concerns=count)
    return result
