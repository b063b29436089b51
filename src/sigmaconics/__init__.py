"""Sesquilinear forms over F_{q^n} and the absolute-point geometry they
induce on PG(1,q^n) and PG(2,q^n): classification of the degenerate cases
(cones, C_F^m-sets, line pairs), cardinality profiles of the nondegenerate
ones, exterior-set constructions and the derived non-linear rank-metric
codes, plus exhaustive census kernels that verify the structure theorems."""

__version__ = "0.1.0"

from .fields import FieldTower, build_field
from .projective import ProjectiveSpace, Subplane, projective_space
from .forms import (AbsolutePointSet, Collineation, RadicalPair, SesquiForm,
                    absolute_mask, absolute_points, congruence_transform,
                    fixed_points, induced_collineation, is_polarity,
                    is_reflexive, make_form, radicals)
from .cfsets import (CfSet, ExteriorSet, PencilCollineation, cf_canonical,
                     cf_degenerate_canonical, components,
                     embed_subplane_in_component, exterior_set,
                     pencil_collineation, pencil_collineation_from_form,
                     steiner_generate, steiner_matches_form, verify_exterior)
from .classify import (KestenbandProfile, LineClassification,
                       PlaneClassification, TrinomialSpec,
                       allowed_cardinalities, classify_line_form,
                       classify_plane_form, count_trinomial_roots, is_arc,
                       kestenband_profile, line_spectrum)
from .mrd import (RankCode, build_code, field_reduce, min_rank_distance,
                  nonlinearity_witness, rank_fq, singleton_bound,
                  subfield_coords)
from .census import (CapExceeded, CensusSummary, diagonal_census,
                     exhaustive_invertible_census, form_record, line_census,
                     plane_kernel, random_census, rank1_census,
                     rank2_normal_census, rank2_random_census, rank_le2_census,
                     splitmix64)
