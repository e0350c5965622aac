"""Domain representations: meshes, connectomes, atlases, and their files."""

from .atlas import (
    ANATOMICAL_TABLE,
    MACROSTAGE_OF_STAGE,
    SLAB_TABLE,
    STAGE_ORDER,
    BraakAtlas,
    StageTable,
    build_braak_atlas,
    load_region_labels,
    slab_atlas,
)
from .connectome import (
    Connectome,
    Edges,
    generate_connectome,
    load_connectome,
    write_connectome,
)
from .mesh import (
    DiffusionModel,
    Faces,
    PolytopalMesh,
    generate_structured_mesh,
    load_mesh,
    simplex_measure,
    slab_labeler,
    write_mesh,
)

__all__ = [
    "ANATOMICAL_TABLE",
    "MACROSTAGE_OF_STAGE",
    "SLAB_TABLE",
    "STAGE_ORDER",
    "BraakAtlas",
    "Connectome",
    "DiffusionModel",
    "Edges",
    "Faces",
    "PolytopalMesh",
    "StageTable",
    "build_braak_atlas",
    "generate_connectome",
    "generate_structured_mesh",
    "load_connectome",
    "load_mesh",
    "load_region_labels",
    "simplex_measure",
    "slab_atlas",
    "slab_labeler",
    "write_connectome",
    "write_mesh",
]
