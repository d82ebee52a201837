"""Linear hypergraphs for traced monoidal terms.

Terms over a signature translate to graphs and back, equality modulo the
traced symmetric monoidal equations is graph isomorphism, and extra
equations run as double-pushout rewrite rules; a digital-circuit rule
library and a reduction evaluator sit on top.
"""
from .terms import (ANON, Gen, Id, ParseError, Seq, Signature, Swap, Tensor,
                    Term, Trace, TypeMismatch, Word, parse_signature,
                    parse_term, render_term, signature, tensor_all, type_of,
                    word)
from .graphs import (IDENTITY_LABEL, INTERFACE, Homomorphism,
                     LinearHypergraph, canonical, expand, find_isomorphism,
                     freshen, is_homomorphism, isomorphic, rename, smooth,
                     validate)
from .ops import compose, generator, identity, swap, tensor, trace
from .interp import equal_mod_stmc, interpret
from .extract import (canonical_edge_order, extract_term, shuffle, stack,
                      untangle)
from .rewrite import (Matching, NormalizeResult, RewriteError, RewriteRule,
                      Step, apply_rewrite, find_matchings, normal_forms,
                      normalize, parse_rules, pushout, pushout_complement,
                      rule_from_terms, saturate_rule)
from .circuits import (UNPRODUCTIVE, CircuitSignature, Gate, ValueLattice,
                       belnap, cartesian_rules, circuit_rules, copy_term,
                       delete_term, evaluate, lattice_from_join, merge_term,
                       parse_circuit_signature, two_point, value_row)
from .serialize import load_graph, save_graph, to_dot

__all__ = [name for name in dir() if not name.startswith("_")]
