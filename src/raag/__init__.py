"""Flag complexes, exact homology, finite covers of cube complexes, and the
vanishing/non-vanishing classification of minimal volume entropy for
right-angled Artin groups."""

from .errors import (CorruptComplexError, CoverSpecError, FixtureError,
                     MalformedComplexError, NotFlagError, QuotientDegenerateError,
                     RaagError, WitnessRejectedError)
from .simplicial import (SimplicialComplex, Simplex, Subdivision, as_simplex,
                         barycentric_subdivision, complement_components,
                         complex_from_json_dict, complex_to_json_dict, cone,
                         flag_completion, from_facets, induced_subcomplex, is_flag,
                         join, join_factors, join_parts, simplicial_quotient)
from .fixtures import FIXTURE_NAMES, fixture, standard_fixtures
from .linalg import (SNFResult, SparseIntMatrix, prime_factors, rank_mod_p,
                     smith_normal_form)
from .homology import (ChainComplexZ, HomologySummary, betti_Fp, flag_reduced_summary,
                       homology_Z, homology_summary, join_homology_kunneth,
                       simplicial_chain_complex, top_cohomology_nonzero, uct_betti_fp)
from .models import CubeComplex, FiniteQuotientSpec, standard_spec
from .collapse import CollapseSequence, collapse, reaches_vertex, replay_collapse
from .classify import (Certificate, EmbeddingWitness, Verdict, classify,
                       replay_certificate, report, verify_witness)
from .growth import CoverResult, GrowthSeries, growth_experiment

__version__ = "0.1.0"
