"""A VNC-like remote framebuffer protocol.

"AT&T's Virtual Network Computer (VNC) is used to make the laptop display
available to the Aroma adapter which in turn displays it via the
projector."  Faithful to that architecture:

* :class:`VNCServer` on the laptop exports a :class:`Framebuffer` using a
  client-pull protocol with incremental (dirty-tile) updates;
* :class:`VNCViewer` on the adapter polls for updates at a target rate and
  pushes decoded pixels out the video port to the projector.

The paper's usability trap is preserved: the server must be explicitly
*started*; a viewer polling a stopped server gets silence and stalls —
exactly the failure a presenter's mental model has to account for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..kernel.errors import ConfigurationError
from ..kernel.scheduler import Simulator
from .framebuffer import Framebuffer


#: Well-known stack port for the remote-framebuffer protocol.
VNC_PORT: int = 20

REQUEST_BYTES = 24
REPLY_HEADER_BYTES = 16


@dataclass(frozen=True)
class UpdateRequest:
    viewer: str
    last_version: int
    request_id: int


@dataclass(frozen=True)
class UpdateReply:
    request_id: int
    version: int
    tiles: int
    payload_bytes: int
    pixels: int


class VNCServer:
    """Exports one framebuffer from a device (the presenter's laptop)."""

    def __init__(self, sim: Simulator, device, fb: Framebuffer,
                 port: int = VNC_PORT) -> None:
        self.sim = sim
        self.device = device
        self.fb = fb
        self.port = port
        self.running = False
        self.endpoint = None
        self.requests_served = 0
        self.bytes_sent = 0

    def start(self) -> None:
        """Start serving (the step the user must remember)."""
        if self.running:
            return
        self.endpoint = self.device.reliable(self.port, self._on_request)
        self.running = True
        self.sim.trace("vnc.server", self.device.name, "VNC server started")

    def stop(self) -> None:
        if not self.running:
            return
        self.endpoint.close()
        self.endpoint = None
        self.running = False
        self.sim.trace("vnc.server", self.device.name, "VNC server stopped")

    def _on_request(self, src: str, request, _segments: int) -> None:
        if not isinstance(request, UpdateRequest) or not self.running:
            return
        tiles, payload, pixels = self.fb.dirty_cost(request.last_version)
        reply = UpdateReply(request.request_id, self.fb.version, tiles,
                            payload, pixels)
        self.requests_served += 1
        self.bytes_sent += REPLY_HEADER_BYTES + payload
        # A new request makes any queued (not-yet-started) reply to this
        # viewer stale — drop it rather than serialising obsolete pixels
        # onto a slow radio.
        self.endpoint.cancel_pending(src)
        self.endpoint.send(src, reply, REPLY_HEADER_BYTES + payload)


class VNCViewer:
    """Polls a VNC server and drives a display sink (the adapter's video
    output).

    Args:
        sim: simulator.
        device: hosting device (the Aroma adapter).
        server_address: where the VNC server lives.
        on_pixels: sink called with the decoded pixel count per update
            (usually ``adapter.drive_display``).
        target_fps: polling rate cap.
        stall_timeout: seconds without a reply before counting a stall and
            re-requesting.
    """

    def __init__(self, sim: Simulator, device, server_address: str,
                 on_pixels: Callable[[int], bool],
                 target_fps: float = 15.0, port: int = VNC_PORT,
                 stall_timeout: float = 2.0) -> None:
        if target_fps <= 0 or stall_timeout <= 0:
            raise ConfigurationError("bad fps/timeout")
        self.sim = sim
        self.device = device
        self.server_address = server_address
        self.on_pixels = on_pixels
        self.target_fps = target_fps
        self.port = port
        self.stall_timeout = stall_timeout
        self.endpoint = device.reliable(port, self._on_message)
        self.running = False
        self.last_version = 0
        self._request_seq = 0
        self._outstanding: Optional[int] = None
        self._stall_timer = None
        self._last_request_at = -1e9
        self._consecutive_stalls = 0
        self.updates_received = 0
        self.frames_displayed = 0
        self.bytes_received = 0
        self.stalls = 0
        # Registry-owned so frame latency appears in run snapshots and
        # close() flushes in-flight requests as abandoned.
        self.latency = sim.metrics.latency(f"vnc.{device.name}", unique=True)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._request()

    def stop(self) -> None:
        self.running = False
        self._cancel_stall_timer()
        self._outstanding = None

    # ------------------------------------------------------------------
    def _request(self) -> None:
        if not self.running or self._outstanding is not None:
            return
        self._request_seq += 1
        request = UpdateRequest(self.device.name, self.last_version,
                                self._request_seq)
        self._outstanding = self._request_seq
        self._last_request_at = self.sim.now
        self.latency.start(self._request_seq)
        self.endpoint.send(self.server_address, request, REQUEST_BYTES)
        self._stall_timer = self.sim.schedule(
            self._current_stall_wait(), self._stalled, self._request_seq)

    def _stalled(self, request_id: int) -> None:
        if self._outstanding != request_id or not self.running:
            return
        self.stalls += 1
        self.latency.cancel(request_id)
        self._outstanding = None
        self.sim.issue("vnc", self.device.name,
                       f"no update from {self.server_address} for "
                       f"{self._current_stall_wait():.1f}s "
                       "(server down or link too slow?)")
        self._consecutive_stalls += 1
        # Back off before retrying: a slow link needs more time to drain
        # the previous reply, and a dead server should not be hammered.
        self.sim.schedule_bound(self._current_stall_wait(), self._request)

    def _current_stall_wait(self) -> float:
        return min(self.stall_timeout * (2.0 ** self._consecutive_stalls),
                   16.0)

    def _cancel_stall_timer(self) -> None:
        if self._stall_timer is not None:
            self._stall_timer.cancel()
            self._stall_timer = None

    def _on_message(self, src: str, reply, _segments: int) -> None:
        if not isinstance(reply, UpdateReply) or not self.running:
            return
        if self._outstanding != reply.request_id:
            return  # stale reply from before a stall
        self._cancel_stall_timer()
        self._outstanding = None
        self._consecutive_stalls = 0
        self.latency.stop(reply.request_id)
        self.updates_received += 1
        self.bytes_received += REPLY_HEADER_BYTES + reply.payload_bytes
        self.last_version = reply.version
        if reply.pixels > 0:
            if self.on_pixels(reply.pixels):
                self.frames_displayed += 1
        # Pace the next poll: no sooner than 1/fps after the previous one.
        next_at = max(self.sim.now,
                      self._last_request_at + 1.0 / self.target_fps)
        self.sim.schedule_at(next_at, self._request)

    # ------------------------------------------------------------------
    def achieved_fps(self, elapsed: float) -> float:
        """Content frames actually displayed per second over ``elapsed``."""
        if elapsed <= 0:
            raise ConfigurationError("elapsed must be positive")
        return self.frames_displayed / elapsed

    def goodput_bps(self, elapsed: float) -> float:
        if elapsed <= 0:
            raise ConfigurationError("elapsed must be positive")
        return 8.0 * self.bytes_received / elapsed
