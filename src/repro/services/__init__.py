"""The abstract layer, device side: the pervasive application software.

Sessions, the RPC service framework, the VNC-like remote framebuffer, the
Smart Projector host and client, content workloads, and the automated
diagnostics the paper lists as required future work.
"""

from ..kernel.lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "AuthResult": "auth",
    "VoiceprintAuthenticator": "auth",
    "RpcCall": "base",
    "RpcClient": "base",
    "RpcResult": "base",
    "RpcService": "base",
    "Animation": "content",
    "ContentGenerator": "content",
    "MixedContent": "content",
    "SlideShow": "content",
    "DiagnosticsAgent": "errorsvc",
    "Fault": "errorsvc",
    "FaultInjector": "errorsvc",
    "human_repair_model": "errorsvc",
    "BYTES_PER_PIXEL": "framebuffer",
    "Framebuffer": "framebuffer",
    "TileUpdate": "framebuffer",
    "CONTROL_PORT": "projector",
    "CONTROL_TYPE": "projector",
    "PROJECTION_PORT": "projector",
    "PROJECTION_TYPE": "projector",
    "SmartProjector": "projector",
    "SmartProjectorClient": "projector",
    "Session": "sessions",
    "SessionManager": "sessions",
    "UpdateReply": "vnc",
    "UpdateRequest": "vnc",
    "VNCServer": "vnc",
    "VNCViewer": "vnc",
    "VNC_PORT": "vnc",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
