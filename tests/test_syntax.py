"""Formula construction, parsing, printing, enumeration, schemata."""

import tracemalloc

import pytest

from metalogic import (
    AND,
    EXISTS,
    FORALL,
    IMPLIES,
    NOT,
    OR,
    AlphabetError,
    ArityError,
    Atom,
    Binary,
    BudgetExceededError,
    Equality,
    FuncApp,
    Negation,
    ParseError,
    RuleParameterError,
    PredApp,
    Quantified,
    Schema,
    SchemaError,
    Var,
    canonical_key,
    enumerate_wffs,
    first_order_alphabet,
    formula_atoms,
    free_variables,
    instantiate_schema,
    kleene_calculus,
    match_schema,
    parse_formula,
    parse_schema,
    print_formula,
    propositional_alphabet,
    shoenfield_fragment_calculus,
    subformulas,
    substitute_prop,
    validate_formula,
    validate_term,
)

from conftest import cyclic_garbage


class TestParsePrint:
    def test_round_trip_is_identity(self, pq_alphabet):
        texts = [
            "P",
            "~P",
            "(P & Q)",
            "(P -> (Q -> P))",
            "~(P | ~Q)",
            "((P & Q) -> (Q & P))",
        ]
        for text in texts:
            formula = parse_formula(text, pq_alphabet)
            assert print_formula(formula) == text
            assert parse_formula(print_formula(formula), pq_alphabet) == formula

    def test_brackets_accepted_and_canonicalized(self, church_p1):
        formula = parse_formula("[p -> [q -> p]]", church_p1.alphabet)
        assert print_formula(formula) == "(p -> (q -> p))"

    def test_mixed_brackets_rejected(self, church_p1):
        with pytest.raises(ParseError):
            parse_formula("[p -> q)", church_p1.alphabet)

    def test_unknown_atom_rejected(self, pq_alphabet):
        with pytest.raises(ParseError):
            parse_formula("(P -> Z)", pq_alphabet)

    def test_trailing_garbage_rejected(self, pq_alphabet):
        with pytest.raises(ParseError):
            parse_formula("(P & Q) Q", pq_alphabet)

    def test_missing_connective_rejected(self, pq_alphabet):
        with pytest.raises(ParseError):
            parse_formula("(P Q)", pq_alphabet)

    def test_connective_not_in_alphabet_rejected(self):
        implies_only = propositional_alphabet(("P",), connectives=(IMPLIES,))
        with pytest.raises(ParseError):
            parse_formula("(P & P)", implies_only)

    def test_constant_parses_as_atom(self, church_p1):
        formula = parse_formula("(f -> p)", church_p1.alphabet)
        assert formula == Binary(IMPLIES, Atom("f"), Atom("p"))


class TestFormulaStructure:
    def test_size_counts_every_node(self):
        formula = Binary(AND, Negation(Atom("P")), Atom("Q"))
        assert formula.size == 4

    def test_atoms_and_subformulas(self, pq_alphabet):
        formula = parse_formula("(P -> ~(P & Q))", pq_alphabet)
        assert formula_atoms(formula) == frozenset({"P", "Q"})
        subs = subformulas(formula)
        assert parse_formula("(P & Q)", pq_alphabet) in subs
        assert formula in subs

    def test_substitute_prop(self, pq_alphabet):
        formula = parse_formula("(P -> (Q -> P))", pq_alphabet)
        result = substitute_prop(formula, "P", parse_formula("~Q", pq_alphabet))
        assert print_formula(result) == "(~Q -> (Q -> ~Q))"

    def test_equal_formulas_hash_alike(self, pq_alphabet):
        one = parse_formula("(P & ~Q)", pq_alphabet)
        two = Binary(AND, Atom("P"), Negation(Atom("Q")))
        assert one == two and hash(one) == hash(two)

    def test_substitute_prop_returns_the_formula_when_the_atom_is_absent(self, pq_alphabet):
        formula = parse_formula("(P -> ~(P & P))", pq_alphabet)
        assert substitute_prop(formula, "Q", Atom("R")) is formula

    def test_substitute_prop_shares_unchanged_subtrees(self, pq_alphabet):
        formula = parse_formula("(P -> ~(Q & Q))", pq_alphabet)
        result = substitute_prop(formula, "P", Atom("Q"))
        assert print_formula(result) == "(Q -> ~(Q & Q))"
        assert result.right is formula.right


def negation_chain(name, depth):
    formula = Atom(name)
    for _ in range(depth):
        formula = Negation(formula)
    return formula


class TestDeepFormulasBuiltInCode:
    """The parser's nesting limit does not bound formulas built in code."""

    def test_formula_atoms(self):
        assert formula_atoms(negation_chain("P", 3000)) == frozenset({"P"})

    def test_schema(self):
        schema = Schema("deep", negation_chain("phi", 3000), ("phi",))
        assert schema.metavariables == ("phi",)
        with pytest.raises(SchemaError):
            Schema("deep", negation_chain("phi", 3000), ("chi",))

    def test_validate_formula(self):
        alphabet = propositional_alphabet(("P",), connectives=(NOT,))
        validate_formula(negation_chain("P", 3000), alphabet)
        with pytest.raises(AlphabetError, match="undeclared atom: 'Q'"):
            validate_formula(negation_chain("Q", 3000), alphabet)

    def test_match_schema_on_a_deep_pattern(self):
        pattern, instance, other = Atom("phi"), Atom("Q"), Atom("P")
        for _ in range(3000):
            pattern = Binary(IMPLIES, Atom("P"), pattern)
            instance = Binary(IMPLIES, Atom("P"), instance)
            other = Binary(IMPLIES, Atom("Q"), other)
        schema = Schema("deep", pattern, ("phi",))
        assert match_schema(schema, instance) == {"phi": Atom("Q")}
        assert match_schema(schema, other) is None

    def test_validate_deep_term(self):
        alphabet = first_order_alphabet(("x",), functions=(("g", 1),), predicates=(("P", 1),))
        term = Var("x")
        for _ in range(3000):
            term = FuncApp("g", (term,))
        validate_formula(PredApp("P", (term,)), alphabet)

    def test_free_variables(self):
        term = Var("x")
        for _ in range(3000):
            term = FuncApp("g", (term,))
        assert free_variables(negation_chain("P", 3000)) == frozenset()
        assert free_variables(term) == frozenset({"x"})
        assert free_variables(Equality(term, Var("y"))) == frozenset({"x", "y"})
        assert free_variables(Quantified(EXISTS, "x", Equality(term, Var("y")))) == frozenset({"y"})


R_XY = PredApp("R", (Var("x"), Var("y")))
EXISTS_ONLY = first_order_alphabet(("x", "y"), predicates=(("R", 2),),
                                   quantifiers=(EXISTS,))


class TestValidation:
    def test_validate_accepts_alphabet_formulas(self, pq_alphabet):
        validate_formula(parse_formula("(P | Q)", pq_alphabet), pq_alphabet)

    def test_validate_rejects_foreign_atom(self, pq_alphabet):
        with pytest.raises(AlphabetError):
            validate_formula(Atom("Z"), pq_alphabet)

    def test_validate_rejects_foreign_connective(self):
        implies_only = propositional_alphabet(("P",), connectives=(IMPLIES,))
        with pytest.raises(AlphabetError):
            validate_formula(Binary(AND, Atom("P"), Atom("P")), implies_only)

    def test_validate_reports_the_first_bad_node_in_pre_order(self):
        not_and = propositional_alphabet(("P",), connectives=(NOT, AND))
        left_first = Binary(AND, Negation(Atom("Z")), Atom("Y"))
        with pytest.raises(AlphabetError, match="undeclared atom: 'Z'"):
            validate_formula(left_first, not_and)
        parent_first = Binary(OR, Atom("Z"), Atom("P"))
        with pytest.raises(AlphabetError, match="connective 'or' is not declared"):
            validate_formula(parent_first, not_and)
        first_order = first_order_alphabet(("x",), functions=(("g", 1),),
                                           predicates=(("R", 2),))
        terms = PredApp("R", (FuncApp("g", (Var("z"),)), FuncApp("h", (Var("x"),))))
        with pytest.raises(AlphabetError, match="undeclared individual variable: 'z'"):
            validate_formula(terms, first_order)

    def test_validate_accepts_a_quantified_formula(self):
        validate_formula(Quantified(EXISTS, "x", R_XY), EXISTS_ONLY)

    @pytest.mark.parametrize("formula, alphabet, message", [
        (Quantified(EXISTS, "x", Atom("P")), propositional_alphabet(("P",)),
         "quantifier in a propositional language"),
        (Quantified(FORALL, "x", R_XY), EXISTS_ONLY,
         "quantifier 'forall' is not declared"),
        (Quantified(EXISTS, "z", R_XY), EXISTS_ONLY,
         "undeclared individual variable: 'z'"),
        (Quantified(EXISTS, "y", PredApp("R", (Var("x"), Var("x")))), EXISTS_ONLY,
         "bound variable 'y' does not occur free"),
        (Quantified(EXISTS, "x", PredApp("R", (Var("x"), Var("z")))), EXISTS_ONLY,
         "undeclared individual variable: 'z'"),
    ], ids=["propositional", "undeclared-quantifier", "undeclared-variable",
            "vacuous", "bad-body"])
    def test_validate_rejects_bad_quantified_formulas(self, formula, alphabet,
                                                      message):
        with pytest.raises(AlphabetError, match=message):
            validate_formula(formula, alphabet)

    @pytest.mark.parametrize("term, message", [
        (FuncApp("h", (Var("x"),)), "undeclared function symbol: 'h'"),
        (FuncApp("g", (Var("x"), Var("x"))), "function 'g' expects 1 argument"),
        (FuncApp("g", (FuncApp("g", (Var("z"),)),)),
         "undeclared individual variable: 'z'"),
    ], ids=["undeclared-function", "arity", "nested-variable"])
    def test_validate_term_rejects_bad_terms(self, term, message):
        alphabet = first_order_alphabet(("x",), functions=(("g", 1),))
        with pytest.raises(AlphabetError, match=message):
            validate_term(term, alphabet)

    def test_validate_term_needs_a_first_order_alphabet(self):
        with pytest.raises(AlphabetError, match="terms require a first-order alphabet"):
            validate_term(Var("x"), propositional_alphabet(("P",)))

    def test_alphabet_rejects_duplicate_variables(self):
        with pytest.raises(AlphabetError):
            propositional_alphabet(("P", "P"))

    def test_alphabet_rejects_variable_constant_clash(self):
        with pytest.raises(AlphabetError):
            propositional_alphabet(("P",), constants=("P",))


# The closed-form counts below were worked out by hand from the grammar
# (two atoms, one unary and three binary connectives) before the
# enumerator existed, and pinned. Size n formulas: every binary split of
# n - 1 nodes across the two operands, plus a negation of any size n - 1
# formula.
KLEENE_PQ_SIZE_COUNTS = {1: 2, 2: 2, 3: 14, 4: 38, 5: 218}


class TestEnumeration:
    def test_pq_counts_by_size(self, pq_alphabet):
        formulas = enumerate_wffs(pq_alphabet, 5)
        assert len(formulas) == 274
        by_size = {}
        for f in formulas:
            by_size[f.size] = by_size.get(f.size, 0) + 1
        assert by_size == KLEENE_PQ_SIZE_COUNTS

    def test_implication_fragment_counts(self):
        alphabet = propositional_alphabet(
            ("p", "q"), connectives=(IMPLIES,), constants=("f",)
        )
        assert len(enumerate_wffs(alphabet, 5)) == 66
        assert len(enumerate_wffs(alphabet, 7)) == 471

    def test_enumeration_is_sorted_and_duplicate_free(self, pq_alphabet):
        formulas = enumerate_wffs(pq_alphabet, 4)
        assert formulas == sorted(set(formulas), key=canonical_key)

    def test_every_enumerated_formula_validates(self, pq_alphabet):
        for f in enumerate_wffs(pq_alphabet, 4):
            validate_formula(f, pq_alphabet)

    def test_limit_raises_budget_error(self, pq_alphabet):
        with pytest.raises(BudgetExceededError):
            enumerate_wffs(pq_alphabet, 5, limit=100)

    @pytest.mark.parametrize("size", [-1, True, 1.5, "2"])
    def test_size_must_be_a_non_negative_integer(self, pq_alphabet, size):
        with pytest.raises(RuleParameterError, match="max_size must be an integer >= 0"):
            enumerate_wffs(pq_alphabet, size)

    def test_a_finite_language_ends_the_loop(self):
        assert enumerate_wffs(propositional_alphabet(("P",), connectives=()), 10**9) == [Atom("P")]
        alphabet = first_order_alphabet(("x",), connectives=(), predicates=(("R", 2),),
                                        quantifiers=(EXISTS,))
        assert [print_formula(f) for f in enumerate_wffs(alphabet, 10**9)] == [
            "(x = x)", "R(x, x)", "exists x (x = x)", "exists x R(x, x)",
        ]

    @pytest.mark.parametrize("calculus", [kleene_calculus, shoenfield_fragment_calculus],
                             ids=["kleene", "shoenfield_fragment"])
    def test_the_ceiling_not_the_size_bounds_the_memory(self, calculus):
        # the formulas, and first-order terms, only up to the ceiling
        alphabet = calculus().alphabet
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                enumerate_wffs(alphabet, 10**6, limit=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSchemas:
    def setup_method(self):
        self.alphabet = propositional_alphabet(
            ("P", "Q", "phi", "chi"), connectives=(NOT, AND, OR, IMPLIES)
        )
        pattern = parse_formula("(phi -> (chi -> phi))", self.alphabet)
        self.schema = Schema("k1", pattern, ("phi", "chi"))

    def test_match_positive(self, pq_alphabet):
        target = parse_formula("((P & Q) -> (~Q -> (P & Q)))", pq_alphabet)
        assignment = match_schema(self.schema, target)
        assert assignment is not None
        assert print_formula(assignment["phi"]) == "(P & Q)"
        assert print_formula(assignment["chi"]) == "~Q"

    def test_match_requires_consistent_bindings(self, pq_alphabet):
        target = parse_formula("(P -> (Q -> Q))", pq_alphabet)
        assert match_schema(self.schema, target) is None

    def test_instantiate_then_match_round_trips(self, pq_alphabet):
        assignment = {
            "phi": parse_formula("~P", pq_alphabet),
            "chi": parse_formula("(P | Q)", pq_alphabet),
        }
        instance = instantiate_schema(self.schema, assignment)
        assert match_schema(self.schema, instance) == assignment

    def test_instantiate_ignores_keys_that_are_not_metavariables(self):
        schema = Schema("k", parse_formula("(phi -> (P -> chi))", self.alphabet),
                        ("phi", "chi"))
        assignment = {"phi": Negation(Atom("Q")), "chi": Atom("Q"),
                      "P": Atom("Q"), "psi": Atom("P")}
        instance = instantiate_schema(schema, assignment)
        assert print_formula(instance) == "(~Q -> (P -> Q))"

    def test_instantiate_missing_metavariable_rejected(self):
        with pytest.raises(SchemaError):
            instantiate_schema(self.schema, {"phi": Atom("P")})

    def test_match_leaves_no_cyclic_garbage(self, pq_alphabet):
        target = parse_formula("((P & Q) -> (~Q -> (P & Q)))", pq_alphabet)
        assert cyclic_garbage(lambda: match_schema(self.schema, target)) == 0

    def test_parse_schema_reads_a_declared_metavariable_name_as_its_symbol(self):
        schema = parse_schema("s", "(phi -> (chi -> psi))", self.alphabet)
        assert schema.metavariables == ("psi",)
        assert schema.pattern == Binary(IMPLIES, Atom("phi"),
                                        Binary(IMPLIES, Atom("chi"), Atom("psi")))

    def test_schema_rejects_unused_metavariable(self):
        pattern = parse_formula("(phi -> phi)", self.alphabet)
        with pytest.raises(SchemaError):
            Schema("bad", pattern, ("phi", "chi", "unused"))


R_YX = PredApp("R", (Var("y"), Var("x")))
X_EQ_Y = Equality(Var("x"), Var("y"))

# node kind: (pattern over the metavariable phi, a formula it matches with
# phi bound to R_XY, a formula of the same shape it does not match)
SCHEMA_NODE_CASES = {
    "negation": (Negation(Atom("phi")), Negation(R_XY), Binary(AND, R_XY, R_XY)),
    "atom": (Binary(AND, Atom("phi"), Atom("Q")), Binary(AND, R_XY, Atom("Q")),
             Binary(AND, R_XY, Atom("P"))),
    "predicate": (Binary(AND, Atom("phi"), R_XY), Binary(AND, R_XY, R_XY),
                  Binary(AND, R_XY, R_YX)),
    "equality": (Binary(OR, Atom("phi"), X_EQ_Y), Binary(OR, R_XY, X_EQ_Y),
                 Binary(OR, R_XY, Equality(Var("y"), Var("x")))),
    "quantifier": (Quantified(EXISTS, "x", Binary(AND, Atom("phi"), R_XY)),
                   Quantified(EXISTS, "x", Binary(AND, R_XY, R_XY)),
                   Quantified(FORALL, "x", Binary(AND, R_XY, R_XY))),
}


@pytest.mark.parametrize("kind", sorted(SCHEMA_NODE_CASES))
def test_match_schema_through_each_node_kind(kind):
    pattern, instance, other = SCHEMA_NODE_CASES[kind]
    schema = Schema(kind, pattern, ("phi",))
    assert match_schema(schema, instance) == {"phi": R_XY}
    assert match_schema(schema, other) is None


class TestFirstOrder:
    def setup_method(self):
        self.alphabet = first_order_alphabet(
            ("x", "y"),
            functions=(("g", 1),),
            predicates=(("P", 1), ("R", 2)),
        )

    def test_parse_equality_and_predicate(self):
        formula = parse_formula("(g(x) = y)", self.alphabet)
        assert formula == Equality(FuncApp("g", (Var("x"),)), Var("y"))
        assert print_formula(parse_formula("R(x, g(y))", self.alphabet)) == "R(x, g(y))"

    def test_parse_quantifier(self):
        formula = parse_formula("exists x P(x)", self.alphabet)
        assert isinstance(formula, Quantified)
        assert formula.variable == "x"
        assert print_formula(formula) == "exists x P(x)"

    def test_free_variables(self):
        formula = parse_formula("exists x R(x, y)", self.alphabet)
        assert free_variables(formula) == frozenset({"y"})

    def test_arity_enforced(self):
        with pytest.raises((ArityError, ParseError)):
            parse_formula("P(x, y)", self.alphabet)

    def test_predicate_atoms_are_not_terms(self):
        with pytest.raises(ParseError):
            parse_formula("(P(x) = y)", self.alphabet)
