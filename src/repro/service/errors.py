"""The service error taxonomy: every failure a client can observe, typed.

Each error carries a stable machine-readable ``code`` (what the HTTP front
maps to a status and what the fault-injection tests assert on) and a human
``message``.  ``to_dict()`` is the wire form; nothing else about an internal
exception leaks to clients — a backend blowing up mid-join surfaces as one
``execution-failed`` document, not a traceback.
"""

from __future__ import annotations


class ServiceError(Exception):
    """Base class: a structured, client-visible failure."""

    code = "internal"

    def __init__(self, message: str, **details: object) -> None:
        super().__init__(message)
        self.message = message
        self.details = details

    def to_dict(self) -> dict:
        doc: dict = {"code": self.code, "message": self.message}
        if self.details:
            doc["details"] = {key: value for key, value in self.details.items()
                              if value is not None}
        return doc


class UnknownTenantError(ServiceError):
    code = "unknown-tenant"


class DuplicateTenantError(ServiceError):
    code = "duplicate-tenant"


class UnknownStreamError(ServiceError):
    code = "unknown-stream"


class InvalidQueryError(ServiceError):
    code = "invalid-query"


class BadRequestError(ServiceError):
    code = "bad-request"


class AdmissionRejectedError(ServiceError):
    """Fast rejection: the global or per-tenant queue is already full.

    ``scope`` is ``"global"`` or ``"tenant"`` — the admission tests assert the
    controller rejects at the right boundary, not merely that it rejects.
    """

    code = "admission-rejected"

    def __init__(self, message: str, scope: str, tenant: str | None = None) -> None:
        super().__init__(message, scope=scope, tenant=tenant)
        self.scope = scope


class DeadlineExceededError(ServiceError):
    code = "deadline-exceeded"


class QueryAbortedError(ServiceError):
    """The query was cooperatively cancelled for a non-deadline reason
    (typically shutdown grace expiry)."""

    code = "query-aborted"


class ServiceUnavailableError(ServiceError):
    code = "service-unavailable"


class QueryExecutionError(ServiceError):
    """The engine raised while executing: the tenant's data or plan hit an
    unexpected condition (e.g. a failing storage backend).

    The original exception type rides along in ``details["cause"]`` so tests
    can distinguish one failure cause from another without
    the service ever re-raising the raw exception at a client.
    """

    code = "execution-failed"

    def __init__(self, message: str, cause: BaseException | None = None) -> None:
        super().__init__(message,
                         cause=type(cause).__name__ if cause is not None else None)
        self.cause = cause
