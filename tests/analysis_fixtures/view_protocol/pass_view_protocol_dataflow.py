"""Fixture: a conforming user-defined dataflow view (plus bystanders).

An ``IncrementalView`` subclass with the required table satisfies the
strict any-method trigger; runtime-style helper classes defining no
protocol method at all are never candidates, even under
``src/repro/dataflow/``.
"""

from repro.engine import view


class UserView(view.IncrementalView):
    """A minimal conforming dataflow view."""

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


class CombinatorNode:
    """Runtime-style helper: no protocol methods, never a candidate."""

    def evaluate(self):
        """Recompute."""
        return None

    def rows(self):
        """Iterate."""
        return iter(())
