"""Exception types shared across the compositing stack.

Plain invalid arguments (bad rectangle, zero width, non-power-of-two
alignment) raise ValueError; everything protocol- or session-shaped gets
its own class so callers can react per failure mode.

A check of client-writable memory raises IncompatibleProtocol (magic),
CorruptRegion (the rest of the header) or ProtocolViolation (a slot
status); the compositor blames a client for nothing else.
"""


class FramebufferError(Exception):
    """Base class for all stack-specific failures."""


class ProtocolViolation(FramebufferError):
    """A frame slot holds an invalid status word, or is not in the state
    an operation needs."""


class RegionTooSmall(FramebufferError):
    def __init__(self, required: int, actual: int):
        super().__init__(
            f"shared region too small: need {required} bytes, have {actual}"
        )
        self.required = required
        self.actual = actual


class IncompatibleProtocol(FramebufferError):
    """Region magic does not match the protocol constant."""


class CorruptRegion(FramebufferError):
    """Region header fails structural validation."""


class ServerUnavailable(FramebufferError):
    """The region has not been published, so a client cannot attach."""


class UsageError(FramebufferError):
    """Client API called out of order (nested begin, end without begin)."""


class SessionLost(FramebufferError):
    """The server has disconnected this session."""


class PlacementConflict(FramebufferError):
    """Requested placement overlaps a registered client, active or
    disconnected."""


class PresentFailure(FramebufferError):
    """The output sink rejected a frame."""
