"""Exact computation of symmetric-group characters, Young-tree central
characters, Hurwitz numbers of arbitrary target genus, and the structure
coefficients of their repeat-count expansions, with exhaustive desk-scale
verification sweeps for the associated character-ratio bounds."""

from .partitions import Partition, parse, partitions_of, dimension
from .characters import (
    CharCache,
    chi,
    chi_column,
    central_character,
    character_ratio,
    one_cycle_central_character,
)
from .young_trees import (
    Box,
    YoungTree,
    enumerate_trees,
    central_character_from_trees,
    frobenius_central_character,
    count_straight_trees,
)
from .hurwitz import (
    CoverSpec,
    RepeatedSpec,
    ConnectedComputer,
    disconnected,
    connected,
    brute_force_disconnected,
    brute_force_connected,
)
from .structure import (
    BTable,
    extract_b_disconnected,
    extract_b_connected,
    verify_theorem,
    check_conjecture_b,
    asymptotic_ratio,
)
from .verify import (
    BoundReport,
    check_lemma_l1,
    sweep_lemma_l1,
    check_lemma_rm2,
    check_theorem_B,
    check_conjecture1,
)

__version__ = "0.1.0"
