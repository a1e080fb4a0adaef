"""Exception types shared across the package."""

from __future__ import annotations


class InstructSmithError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(InstructSmithError):
    """A configuration file or object violates its schema."""


class ConsistencyError(InstructSmithError):
    """Data that must agree internally does not (e.g. mixed vector dims)."""


class ParseError(InstructSmithError):
    """A model reply did not match the expected structured format.

    ``missing`` and ``duplicated`` name the offending keys or rule ids.
    """

    def __init__(self, message: str, *, missing: list[str] | None = None,
                 duplicated: list[str] | None = None):
        super().__init__(message)
        self.missing = missing or []
        self.duplicated = duplicated or []


class UnparseableReplyError(InstructSmithError):
    """No reply in one model conversation parsed; ``stage`` names it."""

    def __init__(self, message: str, *, stage: str, attempts: int, last_reply: object):
        super().__init__(message)
        self.stage = stage
        self.attempts = attempts
        self.last_reply = last_reply


class BackendError(InstructSmithError):
    """Base class for chat/embedding backend failures."""

    #: error class tag used by retry policies; subclasses override.
    error_class = "backend_error"


class RateLimitedError(BackendError):
    error_class = "rate_limited"


class ServerBackendError(BackendError):
    error_class = "server_error"


class BackendTimeoutError(BackendError):
    error_class = "timeout"


class ProtocolError(BackendError):
    """The backend answered, but the response body was not in the expected shape."""
    error_class = "protocol_error"

