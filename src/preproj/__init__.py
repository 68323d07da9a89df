"""Exact-arithmetic engine for modules over small preprojective algebras:
indecomposable atlases, extension spaces, maximal rigid combinatorics,
mutation and tilting graphs, and machine-verification suites."""

from .atlas import Atlas, enumerate_indecomposables
from .config import Config, build_config
from .endo import BoundAlgebra, BModule, enumerate_tilting, verify_graph_correspondence
from .extensions import (
    ExtSpace,
    build_extension,
    ext1_cocycle,
    is_hom_exact,
)
from .linalg import PrimeField
from .modules import (
    Representation,
    check_relations,
    decompose,
    direct_sum,
    hom_basis,
    is_isomorphic,
    projective_module,
    radical,
    simple,
    syzygy,
)
from .quivers import (
    DoubleQuiver,
    PreprojectiveBasis,
    Quiver,
    double,
    dynkin_a,
    preset_quiver,
    symmetric_form,
)
from .rigidgraph import (
    MutationGraph,
    RigidModule,
    enumerate_maximal_rigid,
    export_graph,
    is_connected,
    mutation_graph,
)

__all__ = [
    "Atlas", "enumerate_indecomposables", "Config", "build_config", "BoundAlgebra",
    "BModule", "enumerate_tilting", "verify_graph_correspondence", "ExtSpace",
    "build_extension", "ext1_cocycle", "is_hom_exact", "PrimeField", "Representation", "check_relations", "decompose",
    "direct_sum", "hom_basis", "is_isomorphic", "projective_module", "radical",
    "simple", "syzygy", "DoubleQuiver", "PreprojectiveBasis", "Quiver", "double",
    "dynkin_a", "preset_quiver", "symmetric_form", "MutationGraph", "RigidModule",
    "enumerate_maximal_rigid", "export_graph", "is_connected",
    "mutation_graph",
]
