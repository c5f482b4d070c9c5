"""Balanced group-valued labelings of directed graphs.

A labeling of a directed graph by elements of a finite group is *balanced*
when the ordered product along every closed walk is the identity.  This
package counts, enumerates, samples and verifies such labelings, for
labelings of the edges alone or of vertices and edges together, under two
traversal semantics: *flexible* (edges may be traversed against their
direction, contributing the inverse element) and *rigid* (forward only).
"""

from .balance import *
from .digraph import *
from .enumeration import *
from .groups import *

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORACLE_BUDGET",
    "EDGES",
    "FLEXIBLE",
    "FULL",
    "RIGID",
    "BalancedCount",
    "ClosedWalk",
    "Digraph",
    "EdgeLabeling",
    "EdgeUse",
    "FiniteGroup",
    "FullLabeling",
    "GraphFormatError",
    "GroupAxiomError",
    "GroupSpecError",
    "NotWeaklyConnectedError",
    "OracleBudgetError",
    "Potential",
    "StructureReport",
    "UnbalancedLabelingError",
    "WalkError",
    "all_closed_walks",
    "analyze",
    "brute_force_count",
    "brute_force_labelings",
    "count",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "edges_to_potential",
    "enumerate_all",
    "full_to_pair",
    "full_to_pair_rigid",
    "is_balanced_edges",
    "is_balanced_full",
    "iter_connected_multigraphs",
    "load_cayley_table",
    "load_graph",
    "make_group",
    "pair_to_full_bipartite",
    "pair_to_full_odd",
    "pair_to_full_rigid",
    "potential_to_edges",
    "quaternion_group",
    "sample_uniform",
    "symmetric_group",
    "validate_cayley_table",
    "walk_product_edges",
    "walk_product_full",
    "__version__",
]
