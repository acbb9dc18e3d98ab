"""Single-slot observer hooks shared by several listeners.

Planes expose their observation points as one callable attribute
(``monitor.observer``, ``plane.on_event``, ``root.round_observer``, ...)
that is ``None`` until someone listens. :func:`chain_hook` is the one
way listeners are added, so that telemetry, obs, federation and
experiment probes never clobber each other.
"""

from __future__ import annotations

from typing import Callable


def chain_hook(obj: object, attr: str, fn: Callable) -> None:
    """Add ``fn`` as a listener on the hook ``obj.<attr>``.

    An empty slot gets ``fn`` itself, so a lone listener costs no extra
    call. Otherwise the slot becomes a chain that calls the listeners
    already there first, then ``fn``, with the same arguments:
    listeners run in the order they were added.
    """
    previous = getattr(obj, attr)
    if previous is None:
        setattr(obj, attr, fn)
        return

    def chained(*args) -> None:
        previous(*args)
        fn(*args)

    setattr(obj, attr, chained)
