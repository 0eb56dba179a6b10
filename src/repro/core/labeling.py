"""The labeling function (paper Fig. 5, green arrow).

An application packet first matches filter rules to be classified;
the matched packet gets its QoS labels — the hierarchy class label and
the borrowing class label — stored as metadata in the packet buffer.
The exact-match flow cache short-circuits the rule walk for all but a
flow's first packet.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import UnknownClassError
from ..net.packet import DropReason, Packet
from ..tc.ast import PolicyConfig
from ..tc.classifier import Classifier
from .flow_cache import ExactMatchCache
from .labels import QosLabel
from .sched_tree import SchedulingTree

__all__ = ["LabelingFunction"]

#: ``LabelingFunction.label``'s default: the rules are still to be walked.
_UNWALKED = object()


class LabelingFunction:
    """Classifies packets and stamps QoS labels.

    Parameters
    ----------
    tree: the scheduling tree (for hierarchy paths and borrow labels).
    classifier: the compiled filter rules (slow path).
    default_leaf: leaf class id for unmatched packets (from the root
        qdisc's ``default`` option); ``None`` means unmatched packets
        are dropped.
    """

    def __init__(
        self,
        tree: SchedulingTree,
        classifier: Classifier,
        default_leaf: Optional[str] = None,
    ):
        self.tree = tree
        self.classifier = classifier
        self.default_leaf = default_leaf
        #: The EMC (Observation 2), at its default capacity.
        self.cache: ExactMatchCache[QosLabel] = ExactMatchCache()
        #: Precomputed label per leaf class id.
        self._labels: Dict[str, QosLabel] = {}
        for leaf in tree.leaves():
            hierarchy = tuple(n.classid for n in leaf.path_from_root())
            self._labels[leaf.classid] = QosLabel(hierarchy=hierarchy, borrow=leaf.spec.borrow)
        if default_leaf is not None and default_leaf not in self._labels:
            raise UnknownClassError(default_leaf)
        #: Packets dropped because no rule (and no default) matched.
        self.unclassified_drops = 0

    def label_for_leaf(self, leaf_id: str) -> QosLabel:
        """The precomputed label of a leaf class."""
        try:
            return self._labels[leaf_id]
        except KeyError:
            raise UnknownClassError(leaf_id) from None

    def label(self, packet: Packet, matched: object = _UNWALKED) -> Optional[QosLabel]:
        """Classify *packet*, stamp and return its label.

        Returns ``None`` (and marks the packet dropped) when no rule
        matches and the policy has no default class. *matched* is the
        rule walk's result (``Classifier.first_match``: a leaf id, or
        None for no match) when the caller already walked the rules for
        this packet; the lookup is then counted without walking again.
        """
        cache = self.cache
        # Every field a filter can match: a flow's packets from two
        # apps on one VF are two entries.
        key = (packet.flow, packet.vf_index, packet.app)
        cached = cache.get(key)
        if cached is not None:
            cached.apply_to(packet)
            return cached
        if matched is _UNWALKED:
            leaf_id = self.classifier.classify(packet)
        else:
            leaf_id = self.classifier.count(matched)
        if leaf_id is None:
            leaf_id = self.default_leaf
        if leaf_id is None:
            self.unclassified_drops += 1
            packet.mark_dropped(DropReason.UNCLASSIFIED)
            return None
        label = self.label_for_leaf(leaf_id)
        cache.put(key, label)
        label.apply_to(packet)
        return label

    @property
    def cache_hit_ratio(self) -> float:
        """EMC hit ratio (0.0 before any lookup)."""
        return self.cache.hit_ratio
