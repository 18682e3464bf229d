"""Common interface of publication mechanisms.

Every protection mechanism evaluated in the reproduction — the paper's
pipeline, Geo-Indistinguishability, Wait-For-Me, and the trivial anchors —
exposes the same minimal interface: transform a :class:`MobilityDataset` into
the dataset that gets published.  The experiment harness only relies on this
interface, so adding a new mechanism to the comparison means implementing a
single method (and registering the class with ``@register_mechanism``).

The ``publish() -> MobilityDataset`` surface is the *legacy* one.  The
unified API (:mod:`repro.api`) wraps these mechanisms so ``publish()``
returns a provenance-carrying :class:`~repro.api.result.PublicationResult`;
:func:`~repro.api.adapters.publish_result` is the bridge, and mechanisms can
feed it by exposing three optional hooks:

* ``last_report`` — an :class:`~repro.core.pipeline.AnonymizationReport`
  from the most recent publication;
* ``last_pseudonym_of`` — published label -> original user mapping;
* :meth:`public_properties` — parameters the mechanism announces publicly
  (an adaptive attacker may read them).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict

from ..core.trajectory import MobilityDataset

__all__ = ["PublicationMechanism"]


class PublicationMechanism(ABC):
    """A mechanism that turns a raw dataset into a publishable one."""

    #: Short machine-friendly identifier used in experiment tables.
    name: str = "mechanism"

    @abstractmethod
    def publish(self, dataset: MobilityDataset) -> MobilityDataset:
        """Return the protected dataset; the input is never modified."""

    def public_properties(self) -> Dict[str, object]:
        """Parameters this mechanism publicly announces (none by default)."""
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
