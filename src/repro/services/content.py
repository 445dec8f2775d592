"""Screen-content workload generators for the VNC experiments.

The paper's physical-layer finding — "the relatively low bandwidth of
current wireless networking adapters ... prevents us from displaying rapid
animation" — needs two contrasting workloads:

* :class:`SlideShow` — full-screen changes every few tens of seconds,
  highly compressible.  What presentations actually are.
* :class:`Animation` — a moving region redrawn many times a second,
  poorly compressible.  What kills a 2 Mb/s radio.

Plus :class:`MixedContent`, slides with an embedded animation, for
realistic sessions.
"""

from __future__ import annotations

from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator
from .framebuffer import Framebuffer


class ContentGenerator:
    """Base: drives a framebuffer on a schedule."""

    def __init__(self, sim: Simulator, fb: Framebuffer, name: str) -> None:
        self.sim = sim
        self.fb = fb
        self.name = name
        self._task = None
        self.updates_generated = 0

    def start(self) -> "ContentGenerator":
        raise NotImplementedError

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None


class SlideShow(ContentGenerator):
    """Full-screen slide flips with jittered dwell time.

    Args:
        dwell_s: mean seconds per slide.
        compression_ratio: slides are mostly text on flat background —
            ~0.05 of raw size after encoding.
    """

    def __init__(self, sim: Simulator, fb: Framebuffer,
                 dwell_s: float = 30.0, compression_ratio: float = 0.05,
                 name: str = "slides") -> None:
        super().__init__(sim, fb, name)
        if dwell_s <= 0:
            raise ConfigurationError("dwell must be positive")
        self.dwell_s = dwell_s
        self.compression_ratio = compression_ratio
        self._rng = sim.rng(f"content.{name}")

    def start(self) -> "SlideShow":
        self._flip()
        return self

    def _flip(self) -> None:
        self.fb.touch_all(self.compression_ratio)
        self.updates_generated += 1
        jitter = float(self._rng.uniform(0.5, 1.5))
        self._task = self.sim.schedule(self.dwell_s * jitter, self._flip)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None


class Animation(ContentGenerator):
    """A region redrawn at a fixed frame rate (video clip, demo, cursor
    chase).  Poorly compressible."""

    def __init__(self, sim: Simulator, fb: Framebuffer, fps: float = 15.0,
                 region: tuple = (320, 240), compression_ratio: float = 0.5,
                 name: str = "animation") -> None:
        super().__init__(sim, fb, name)
        if fps <= 0:
            raise ConfigurationError("fps must be positive")
        self.fps = fps
        self.region = region
        self.compression_ratio = compression_ratio
        self._rng = sim.rng(f"content.{name}")

    def start(self) -> "Animation":
        self._task = self.sim.every(1.0 / self.fps, self._frame, start=0.0)
        return self

    def _frame(self) -> None:
        w, h = self.region
        x = int(self._rng.integers(0, max(1, self.fb.width - w)))
        y = int(self._rng.integers(0, max(1, self.fb.height - h)))
        self.fb.touch_rect(x, y, w, h, self.compression_ratio)
        self.updates_generated += 1


class MixedContent(ContentGenerator):
    """A realistic talk: slides, with an embedded animation part of the
    time (``animation_duty`` of each slide dwell)."""

    def __init__(self, sim: Simulator, fb: Framebuffer,
                 dwell_s: float = 30.0, animation_duty: float = 0.3,
                 fps: float = 10.0, name: str = "mixed") -> None:
        super().__init__(sim, fb, name)
        if not (0.0 <= animation_duty <= 1.0):
            raise ConfigurationError("duty must be in [0, 1]")
        self.slides = SlideShow(sim, fb, dwell_s, name=f"{name}.slides")
        self.animation = Animation(sim, fb, fps, name=f"{name}.anim")
        self.animation_duty = animation_duty
        self.dwell_s = dwell_s

    def start(self) -> "MixedContent":
        self.slides.start()
        if self.animation_duty > 0:
            self._cycle_on()
        return self

    def _cycle_on(self) -> None:
        self.animation.start()
        self._task = self.sim.schedule(self.dwell_s * self.animation_duty,
                                       self._cycle_off)

    def _cycle_off(self) -> None:
        self.animation.stop()
        self._task = self.sim.schedule(
            self.dwell_s * (1.0 - self.animation_duty), self._cycle_on)

    def stop(self) -> None:
        self.slides.stop()
        self.animation.stop()
        super().stop()

    @property
    def updates(self) -> int:
        return self.slides.updates_generated + self.animation.updates_generated
