"""Balanced group-valued labelings of directed graphs.

A labeling of a directed graph by elements of a finite group is *balanced*
when the ordered product along every closed walk is the identity.  This
package counts, enumerates, samples and verifies such labelings, for
labelings of the edges alone or of vertices and edges together, under two
traversal semantics: *flexible* (edges may be traversed against their
direction, contributing the inverse element) and *rigid* (forward only).
"""

from . import balance, digraph, enumeration, groups
from .balance import *
from .digraph import *
from .enumeration import *
from .groups import *

__version__ = "0.1.0"

# ALL-CAPS constants first, then every other name in code-point order, then
# __version__: tests/data/bijections.json pins this order.
__all__ = sorted(
    [*balance.__all__, *digraph.__all__, *enumeration.__all__, *groups.__all__],
    key=lambda name: (not name.isupper(), name),
) + ["__version__"]
