"""repro.api — the unified statement API.

Two layers live here:

* :mod:`repro.api.router` — the :class:`~repro.api.router.StatementRouter`
  that every entry point (``Session.execute``, ``QueryService.execute``,
  the facade below) shares for statement classification,
  DML execution and DDL dispatch;
* :mod:`repro.api.connection` — the PEP-249-flavored facade:
  :func:`~repro.api.connection.connect` returning a
  :class:`~repro.api.connection.Connection` with streaming
  :class:`~repro.api.connection.Cursor` objects.

``connection`` is loaded lazily (PEP 562): it imports the service layer,
which itself imports the router from this package — eager loading here
would close that cycle.
"""

from repro.api.router import StatementResult, StatementRouter

__all__ = ["StatementResult", "StatementRouter",
           "connect", "Connection", "Cursor"]

_CONNECTION_EXPORTS = ("connect", "Connection", "Cursor")


def __getattr__(name: str):
    if name in _CONNECTION_EXPORTS:
        from repro.api import connection
        return getattr(connection, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
