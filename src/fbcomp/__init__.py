"""Software compositing stack for partitioned real-time systems.

Unified framebuffer API with frame queuing, a shared-memory
client/server compositor protocol, watchdog-based fault containment,
and a multi-process harness with overhead benchmarks.
"""

from .clock import Clock, SimClock, WallClock
from .errors import (CorruptRegion, FramebufferError, IncompatibleProtocol,
                     PlacementConflict, PresentFailure, ProtocolViolation,
                     RegionTooSmall, ServerUnavailable, SessionLost, UsageError)
from .frame_queue import FrameHandle, FrameQueue, FrameState
from .pixel import (PixelFormat, Rect, Surface, SurfaceGeometry, blit,
                    compute_pitch, convert_pixel, pack_channels,
                    unpack_channels)
from .client import ClientSession, connect_session, open_direct_session
from .compositor import (ClientDescriptor, ClientState, CompositionTarget,
                         CompositorServer, DisconnectEvent)
from .shm import (MAGIC, RegionConfig, client_attach, encode_header,
                  layout_for, publish, required_region_size, validate_region)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
