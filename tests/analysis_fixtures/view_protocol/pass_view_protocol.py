"""Fixture: a conforming IncrementalView subclass."""

from repro.engine.view import IncrementalView


class CompleteView(IncrementalView):
    """A minimal conforming view: absorb plus persistence and routing;
    apply comes from the protocol."""

    def absorb(self, delta, new_nodes):
        """Fan-out path."""
        return None

    def snapshot(self):
        """Serialize."""
        return ()

    @classmethod
    def restore(cls, graph, state, meter=None):
        """Rebuild."""
        return cls()

    def relevance(self):
        """Routing filter."""
        return None

    def empty_output(self):
        """Empty ΔO."""
        return None


class UnitView(IncrementalView):
    """Overrides the unit updates with a unit algorithm at the
    protocol's arities."""

    def insert_edge(self, source, target, **labels):
        """Unit insert."""
        return None

    def delete_edge(self, source, target):
        """Unit delete."""
        return None

    def absorb(self, delta, new_nodes):
        """Fan-out path."""
        return None

    def snapshot(self):
        """Serialize."""
        return ()

    @classmethod
    def restore(cls, graph, state, meter=None):
        """Rebuild."""
        return cls()

    def relevance(self):
        """Routing filter."""
        return None

    def empty_output(self):
        """Empty ΔO."""
        return None


class NotAView:
    """Only snapshot — not a candidate, so nothing is required."""

    def snapshot(self):
        """Some unrelated snapshot."""
        return ()
