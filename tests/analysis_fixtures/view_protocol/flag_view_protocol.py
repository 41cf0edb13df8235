"""Fixture: a view candidate that re-creates the apply fork."""


class BrokenView:
    """Defines absorb+snapshot (so it *is* a view candidate) without
    subclassing IncrementalView, writes its own apply, forgets two
    required methods, breaks absorb's and insert_edge's arities, and
    restores via an instance method."""

    def apply(self, delta):
        """A second maintenance path: the protocol owns apply."""
        return delta

    def insert_edge(self, source):
        """Wrong arity: callers pass (source, target, **labels)."""
        return source

    def absorb(self, delta):
        """Wrong arity: the engine calls absorb(delta, new_nodes)."""
        return delta

    def snapshot(self):
        """Fine."""
        return ()

    def restore(self, graph, state, meter=None):
        """Not a classmethod: persistence has no instance to call on."""
        return self
