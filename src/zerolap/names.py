"""The names the command line shares with the library: operators, partition
kinds, predicates and the defaults. This module imports nothing, so the
command line builds its parser and checks its config without numpy."""

LAPLACIAN = "laplacian"
SIGNLESS = "signless"
ZERO_EIG_OPERATORS = (LAPLACIAN, SIGNLESS)

HM = "hm"
ODD = "odd"
EVEN = "even"
BIPARTITION_FLAVORS = (HM, ODD, EVEN)

TRIPARTITE = "tripartite"
L_QUAD = "lquad"
SL_QUAD = "slquad"
PENTA = "penta"

PREDICATES = ("literal", "residue")

# The one default of ``--budget``, for every budgeted step.
DEFAULT_ENUM_BUDGET = 200_000

# The one default of ``--tolerance``, the bound on each realized class's residual.
DEFAULT_TOLERANCE = 1e-9
