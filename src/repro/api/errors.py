"""Structured errors for the client API.

Every failure that crosses the API boundary is an :class:`ApiError`
carrying a stable machine-readable ``code`` (the enum-like constants
below), a human-readable message, and a ``retryable`` hint — so callers
branch on codes, not on whichever Python exception a backend happened to
raise. The :class:`~repro.api.middleware.ErrorMapper` middleware performs
the mapping from raw backend exceptions; backends themselves stay free to
raise their native ``ValueError``/``RuntimeError``/``MeshError``.
"""

from __future__ import annotations

__all__ = [
    "ApiError",
    "ValidationFailed",
    "UnsupportedVersion",
    "AdmissionRejected",
    "RequestRejected",
    "BackendUnavailable",
    "InternalError",
    "INVALID_REQUEST",
    "UNSUPPORTED_VERSION",
    "RATE_LIMITED",
    "REJECTED",
    "UNAVAILABLE",
    "INTERNAL",
    "map_exception",
    "error_from_info",
]

#: Stable error codes — the values are wire-format, do not rename.
INVALID_REQUEST = "invalid-request"
UNSUPPORTED_VERSION = "unsupported-version"
RATE_LIMITED = "rate-limited"
REJECTED = "rejected"
UNAVAILABLE = "unavailable"
INTERNAL = "internal"


class ApiError(Exception):
    """Base of every structured API failure."""

    code = INTERNAL
    retryable = False

    def __init__(self, message: str, *, detail: str = "") -> None:
        super().__init__(message)
        self.message = message
        self.detail = detail

    def info(self):
        """This error as a transportable :class:`~repro.api.messages.ErrorInfo`."""
        from .messages import ErrorInfo

        return ErrorInfo(
            code=self.code,
            message=self.message,
            retryable=self.retryable,
            detail=self.detail,
        )


class ValidationFailed(ApiError):
    """The request itself is malformed (bad ids, non-finite coordinates)."""

    code = INVALID_REQUEST


class UnsupportedVersion(ApiError):
    """A wire document advertises a schema/version this runtime can't read."""

    code = UNSUPPORTED_VERSION


class AdmissionRejected(ApiError):
    """Admission control turned the request away; retry after backoff."""

    code = RATE_LIMITED
    retryable = True

    def __init__(self, message: str, *, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class RequestRejected(ApiError):
    """The backend understood the request and refused it (duplicate worker
    id, exhausted privacy budget, registration closed)."""

    code = REJECTED


class BackendUnavailable(ApiError):
    """The backend is down or stopped responding; safe to retry elsewhere."""

    code = UNAVAILABLE
    retryable = True


class InternalError(ApiError):
    """Anything the mapping below has no better name for."""

    code = INTERNAL


def map_exception(exc: Exception) -> ApiError:
    """Map a raw backend exception onto the structured error taxonomy.

    Idempotent: an :class:`ApiError` passes through unchanged, so nesting
    error-mapping middleware cannot double-wrap.
    """
    if isinstance(exc, ApiError):
        return exc
    detail = f"{type(exc).__name__}: {exc}"
    try:
        from ..mesh.coordinator import MeshError
    except Exception:  # pragma: no cover - mesh always importable here
        MeshError = ()
    if isinstance(exc, MeshError):
        return BackendUnavailable(str(exc), detail=detail)
    if isinstance(exc, (ValueError, TypeError, KeyError, IndexError)):
        return RequestRejected(str(exc), detail=detail)
    if isinstance(exc, RuntimeError):
        return RequestRejected(str(exc), detail=detail)
    return InternalError(str(exc), detail=detail)


#: Wire code -> exception class; the inverse of each class's ``code``.
_CODE_TO_ERROR = {
    INVALID_REQUEST: ValidationFailed,
    UNSUPPORTED_VERSION: UnsupportedVersion,
    RATE_LIMITED: AdmissionRejected,
    REJECTED: RequestRejected,
    UNAVAILABLE: BackendUnavailable,
    INTERNAL: InternalError,
}


def error_from_info(info) -> ApiError:
    """Rehydrate a transported :class:`~repro.api.messages.ErrorInfo`.

    The inverse of :meth:`ApiError.info`, used by network transports
    (:class:`~repro.gateway.RemoteBackend`) so a structured failure
    raised server-side re-raises client-side as the *same* exception
    class with the same code and ``retryable`` hint. Unknown codes — a
    newer server's taxonomy — degrade to :class:`InternalError` rather
    than being dropped.
    """
    cls = _CODE_TO_ERROR.get(info.code, InternalError)
    exc = cls(info.message)
    exc.detail = info.detail
    return exc
