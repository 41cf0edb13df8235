"""Fixture: a user-defined dataflow view that dodges the pair trigger.

Defines ``apply`` + ``snapshot`` but never ``absorb`` and does not
subclass ``IncrementalView`` — outside ``src/repro/dataflow/`` this is
not a view candidate at all; inside it, the strict any-method trigger
holds the class to the full table.
"""


class PartialUserView:
    """Implements its own batch path and persistence half, forgets the
    engine fan-out half entirely."""

    def apply(self, delta):
        """Batch path."""
        return None

    def snapshot(self):
        """Serialize."""
        return ()

    def relevance(self):
        """Routing filter."""
        return None
