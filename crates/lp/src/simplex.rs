//! Bounded-variable revised simplex over a factorized sparse basis.
//!
//! The solver works on an internal standard form
//!
//! ```text
//! min c·x   s.t.  A x + s = b,   l ≤ (x, s, a) ≤ u
//! ```
//!
//! with one slack per row (`≤` rows get `s ∈ [0, ∞)`, `≥` rows
//! `s ∈ (−∞, 0]`, `=` rows `s ∈ [0, 0]`) and, during phase 1, one artificial
//! variable per initially-infeasible row. Maximization is handled by
//! negating the objective.
//!
//! Design choices sized for this workspace's LPs (up to ≈10³–10⁴ rows and
//! columns, very sparse):
//!
//! * The basis is held as a **sparse LU factorization** with Markowitz
//!   fill-in control ([`crate::factor`]), so FTRAN (`B⁻¹aⱼ`) and BTRAN
//!   (`cᵦᵀB⁻¹`) cost time proportional to the factor nonzeros rather
//!   than `O(m²)`. Between the periodic refactorizations
//!   ([`SolveOptions::refresh_every`]) each pivot appends a
//!   **product-form eta**. The historical dense explicit `B⁻¹`
//!   (elementary row updates per pivot, Gauss-Jordan refresh) remains
//!   available behind [`SolveOptions::basis`]`=
//!   `[`BasisBackend::Dense`] for A/B validation of results and
//!   performance.
//! * Pricing ([`Pricing`]) is Dantzig (most violating reduced cost,
//!   full sweeps) on small problems and **devex reference-weight
//!   pricing** by default on large ones. Devex approximates steepest
//!   edge; the size switch was tuned on synthetic LPs and costs pivots
//!   on the SPM relaxations (see `AUTO_DEVEX_MIN_COLS`). An automatic
//!   switch to Bland's rule after a run of degenerate pivots guarantees
//!   termination. Devex weights are index-ordered solver state, so
//!   results stay deterministic.
//! * Every "row-space vector · every column" product — the reduced costs
//!   `dⱼ = cⱼ − Σᵣ aᵣⱼ·yᵣ` and the pivot row `αⱼ = Σᵣ aᵣⱼ·ρᵣ` used by
//!   pricing, the devex update, the dual simplex and its feasibility
//!   check — is **row-wise**: one scatter of the vector's nonzero
//!   entries, in ascending row order, over a row-major copy of the
//!   standard-form matrix built once per solve. The work follows the
//!   nonzero duals (about a quarter of the rows on the SPM LPs) instead
//!   of every column's nonzeros. Each column still adds the same
//!   products in the same ascending-row order as a per-column dot, and
//!   a skipped exact-zero entry only drops a signed-zero addend, so the
//!   reduced costs, and with them every pivot, are bit-identical to the
//!   column-wise sweep.
//! * The ratio test is the textbook smallest-ratio rule: the first basic
//!   variable to hit a bound blocks, ties broken by lowest row index.

use crate::error::SolveError;
use crate::factor::{EtaFile, LuFactors};
use crate::matrix::{CscBuilder, CscMatrix};
use crate::model::{Problem, Relation, Sense};
use crate::solution::{LpTrace, Solution, SolveStats, TracePricing, TraceRecord};

/// How the simplex represents (the inverse of) the basis matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BasisBackend {
    /// Sparse LU factorization with Markowitz ordering and product-form
    /// eta updates between refactorizations: pivots cost time
    /// proportional to the factor nonzeros. The default.
    #[default]
    SparseLu,
    /// Dense explicit `m×m` inverse, updated by elementary row
    /// operations (`O(m²)` per pivot) and recomputed by Gauss-Jordan
    /// (`O(m³)`). Kept for A/B validation against the sparse backend.
    Dense,
}

/// Entering-variable pricing strategy (primal simplex).
///
/// Every strategy declares optimality only after the full column set has
/// been examined against the current duals, so they all return the same
/// optima — just with different pivot sequences. Devex weights are plain
/// solver state updated in index order, so results stay deterministic
/// under every variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Pricing {
    /// Dantzig full sweeps on small problems, switching to [`Pricing::Devex`]
    /// once the column count reaches an internal threshold. The default.
    #[default]
    Auto,
    /// Dantzig: scan every nonbasic column on every iteration, most
    /// violating reduced cost enters.
    Full,
    /// Devex (Forrest–Goldfarb) pricing: each column carries a reference
    /// weight `γⱼ` approximating the squared steepest-edge norm, the
    /// column maximizing `dⱼ²/γⱼ` enters, and the weights are updated
    /// from the pivot row at `O(nnz)` per pivot. Weights reset to 1
    /// (counted in [`crate::SolveStats::devex_resets`]) when they grow
    /// past an internal guard.
    Devex,
}

/// Standard-form column count (`n + m`) at which [`Pricing::Auto`]
/// switches from Dantzig full sweeps to devex. The value was tuned on
/// the synthetic `bench_lp` families, where devex cuts pivots on the
/// large packing LPs. It does not carry over to the paper LPs: on the
/// B4 RL-SPM relaxation at K=3000 (seeds 1–4, one release run each on
/// a 2-vCPU x86-64 box) devex took 19,202–21,266 pivots and
/// 19.7–26.1 s, Dantzig (`Pricing::Full`) 3,385–3,567 pivots and
/// 0.72–0.92 s. The switch also decides which tied vertex Metis
/// reaches, so moving it moves profit; ROADMAP item 2 tracks it.
const AUTO_DEVEX_MIN_COLS: usize = 3000;

/// Devex weights past this guard trigger a reference-framework reset:
/// the approximation error compounds multiplicatively per pivot, so
/// runaway weights mean the steepest-edge estimate has degraded.
const DEVEX_RESET_THRESHOLD: f64 = 1e8;

/// Tuning knobs for the simplex solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveOptions {
    /// Feasibility / optimality tolerance.
    pub tol: f64,
    /// Smallest pivot magnitude accepted in the ratio test.
    pub pivot_tol: f64,
    /// Hard cap on pivots across both phases; `0` means automatic
    /// (`1000 + 50·(m + n)`).
    pub max_iterations: usize,
    /// Refactorization cadence: rebuild the basis representation from
    /// scratch every this many pivots. For [`BasisBackend::SparseLu`]
    /// this also bounds the eta-file length; for
    /// [`BasisBackend::Dense`] it bounds drift of the explicit inverse.
    pub refresh_every: usize,
    /// Number of consecutive degenerate pivots before switching to
    /// Bland's rule.
    pub bland_after: usize,
    /// Basis representation; see [`BasisBackend`]. Both backends accept
    /// and produce the same warm-start [`Basis`] snapshots.
    pub basis: BasisBackend,
    /// Entering-variable pricing strategy; see [`Pricing`].
    pub pricing: Pricing,
    /// Independently certify every returned solution via
    /// [`crate::verify`] (recomputed residuals, bounds, objective) and
    /// fail the solve with [`SolveError::CertificateRejected`] on
    /// disagreement. Always on under `debug_assertions`; this flag forces
    /// it in release builds (`MetisConfig::audit` sets it).
    pub verify: bool,
    /// Record a per-iteration trace (entering/leaving column, objective,
    /// pivot magnitude, pricing rule) into a bounded ring returned via
    /// [`Solution::trace`]. Off by default: each traced step costs an
    /// `O(m + n)` objective evaluation. Tracing is read-only — it never
    /// changes the pivot sequence, so a traced solve returns exactly
    /// the solution an untraced one does.
    pub trace: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tol: 1e-7,
            pivot_tol: 1e-9,
            max_iterations: 0,
            refresh_every: 300,
            bland_after: 200,
            basis: BasisBackend::SparseLu,
            pricing: Pricing::Auto,
            verify: false,
            trace: false,
        }
    }
}

/// A snapshot of an optimal basis, reusable to warm-start the solve of a
/// *related* problem (same rows and columns, different bounds) — the
/// branch-and-bound pattern. Opaque; obtain one from
/// [`Problem::solve_with_basis`].
#[derive(Clone, Debug)]
pub struct Basis {
    /// Status of every structural variable and slack (artificials are
    /// never snapshotted).
    state: Vec<VarState>,
    n_struct: usize,
}

impl Problem {
    /// Solves the linear relaxation of this problem (integrality markers are
    /// ignored) with default options.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`], [`SolveError::Unbounded`], or a
    /// numerical/limit error.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solves the linear relaxation with explicit options.
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`].
    pub fn solve_with(&self, options: &SolveOptions) -> Result<Solution, SolveError> {
        let mut s = Simplex::new(self, options);
        let solution = s.run()?;
        self.certify_if_requested(options, &solution)?;
        Ok(solution)
    }

    /// Solves the relaxation, optionally warm-starting from a [`Basis`]
    /// snapshotted on a related problem (identical rows/columns; bounds
    /// and costs may differ). Returns the solution together with the
    /// final basis for further chaining.
    ///
    /// When the supplied basis is dual-feasible for this problem — the
    /// case after tightening a variable bound, as branch-and-bound does —
    /// reoptimization runs the **dual simplex** and typically needs a
    /// handful of pivots. Otherwise the solver falls back to a cold
    /// start; the result is identical either way.
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`].
    pub fn solve_with_basis(
        &self,
        options: &SolveOptions,
        warm: Option<&Basis>,
    ) -> Result<(Solution, Basis), SolveError> {
        if let Some(basis) = warm {
            let mut s = Simplex::new(self, options);
            match s.run_from_basis(basis) {
                Ok(done) => {
                    self.certify_if_requested(options, &done.0)?;
                    return Ok(done);
                }
                Err(SolveError::Infeasible) => return Err(SolveError::Infeasible),
                Err(SolveError::Unbounded) => return Err(SolveError::Unbounded),
                Err(_) => { /* numerically unusable start: cold-start below */ }
            }
        }
        let mut s = Simplex::new(self, options);
        let solution = s.run()?;
        self.certify_if_requested(options, &solution)?;
        let basis = s.snapshot();
        Ok((solution, basis))
    }

    /// Runs [`crate::verify`] on a freshly produced solution when
    /// [`SolveOptions::verify`] is set or in debug builds. The
    /// certificate tolerance is one order looser than the solver's own,
    /// so honest accumulated rounding never trips it.
    fn certify_if_requested(
        &self,
        options: &SolveOptions,
        solution: &Solution,
    ) -> Result<(), SolveError> {
        if options.verify || cfg!(debug_assertions) {
            crate::verify::verify(self, solution, options.tol * 10.0)?;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VarState {
    Basic(u32),
    AtLower,
    AtUpper,
    /// Nonbasic free variable, held at value 0.
    FreeZero,
}

struct Simplex {
    /// Full standard-form matrix: structural | slacks | artificials.
    a: CscMatrix,
    /// Row-major copy of `a` (its transpose), built once the column set
    /// is final; every pricing product scatters over it.
    a_rows: CscMatrix,
    /// Objective over all standard-form columns (minimization).
    cost: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    rhs: Vec<f64>,
    n_struct: usize,
    n_slack: usize,
    maximize: bool,

    state: Vec<VarState>,
    basis: Vec<u32>,
    /// Basis representation: dense explicit inverse or sparse LU + etas.
    repr: BasisRepr,
    /// Values of basic variables, per row.
    xb: Vec<f64>,

    opts: SolveOptions,
    iterations: usize,
    max_iterations: usize,
    degenerate_streak: usize,
    pivots_since_refresh: usize,
    /// Whether devex pricing is active (else Dantzig full sweeps).
    devex: bool,
    /// Devex reference weights `γⱼ`, one per standard-form column.
    devex_w: Vec<f64>,

    // Work counters reported through `Solution::stats`.
    phase1_iterations: usize,
    dual_iterations: usize,
    bound_flips: usize,
    refreshes: usize,
    warm_started: bool,
    eta_updates: usize,
    lu_l_nnz: usize,
    lu_u_nnz: usize,
    devex_resets: usize,

    /// Per-iteration ring buffer, filled only when `opts.trace` is set.
    /// `trace[trace_start..]` then `trace[..trace_start]` is the
    /// chronological order once the ring has wrapped.
    trace: Vec<TraceRecord>,
    trace_start: usize,
    trace_dropped: u64,

    // Scratch buffers reused across iterations.
    y: Vec<f64>,
    w: Vec<f64>,
    /// Row `r` of `B⁻¹`, written by [`Simplex::btran_unit`].
    rho: Vec<f64>,
    /// Reduced costs `dⱼ` of every column against `y`.
    dj: Vec<f64>,
    /// Pivot row `αⱼ = ρᵀaⱼ` of every column against `rho`.
    alpha: Vec<f64>,
    /// Row-space scratch (FTRAN right-hand sides, BTRAN outputs).
    rowbuf: Vec<f64>,
    /// Permuted-space scratch handed to [`LuFactors`] solves.
    lubuf: Vec<f64>,
}

/// Runtime basis representation behind [`BasisBackend`].
// One representation lives per solve; the size skew between variants
// is irrelevant next to the O(m²)/O(nnz) buffers each one owns.
#[allow(clippy::large_enum_variant)]
enum BasisRepr {
    /// Dense row-major `B⁻¹`, `m × m`.
    Dense { binv: Vec<f64> },
    /// Sparse LU factors of `B` plus the eta file of pivots applied
    /// since the last refactorization.
    Sparse { lu: LuFactors, etas: EtaFile },
}

/// Outcome of one pricing step.
enum PriceStep {
    Optimal,
    Enter { col: usize, dir: f64 },
}

/// Outcome of one ratio test.
enum Ratio {
    Unbounded,
    BoundFlip {
        step: f64,
    },
    Pivot {
        row: usize,
        step: f64,
        to_upper: bool,
    },
}

impl Simplex {
    fn new(problem: &Problem, opts: &SolveOptions) -> Self {
        let m = problem.num_constraints();
        let n = problem.num_vars();
        let maximize = problem.sense() == Sense::Maximize;

        let mut a = problem.to_csc();
        let mut cost: Vec<f64> = problem
            .vars
            .iter()
            .map(|v| if maximize { -v.obj } else { v.obj })
            .collect();
        let mut lower: Vec<f64> = problem.vars.iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = problem.vars.iter().map(|v| v.upper).collect();

        // Slacks: a·x + s = b.
        for (i, row) in problem.rows.iter().enumerate() {
            a.push_unit_col(i, 1.0);
            cost.push(0.0);
            match row.relation {
                Relation::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                Relation::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                Relation::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }
        let rhs: Vec<f64> = problem.rows.iter().map(|r| r.rhs).collect();

        let max_iterations = if opts.max_iterations == 0 {
            1000 + 50 * (m + n)
        } else {
            opts.max_iterations
        };

        let repr = match opts.basis {
            BasisBackend::Dense => BasisRepr::Dense { binv: Vec::new() },
            BasisBackend::SparseLu => BasisRepr::Sparse {
                lu: LuFactors::identity(m),
                etas: EtaFile::default(),
            },
        };
        // Resolve the pricing strategy against the column count
        // (structural + slack; phase-1 artificials are few).
        let devex = match opts.pricing {
            Pricing::Full => false,
            Pricing::Devex => true,
            Pricing::Auto => n + m >= AUTO_DEVEX_MIN_COLS,
        };

        Simplex {
            a,
            a_rows: CscBuilder::new(0).build(),
            cost,
            lower,
            upper,
            rhs,
            n_struct: n,
            n_slack: m,
            maximize,
            state: Vec::new(),
            basis: Vec::new(),
            repr,
            xb: Vec::new(),
            opts: *opts,
            iterations: 0,
            max_iterations,
            degenerate_streak: 0,
            pivots_since_refresh: 0,
            devex,
            devex_w: Vec::new(),
            phase1_iterations: 0,
            dual_iterations: 0,
            bound_flips: 0,
            refreshes: 0,
            warm_started: false,
            eta_updates: 0,
            lu_l_nnz: 0,
            lu_u_nnz: 0,
            devex_resets: 0,
            trace: Vec::new(),
            trace_start: 0,
            trace_dropped: 0,
            y: vec![0.0; m],
            w: vec![0.0; m],
            rho: vec![0.0; m],
            dj: Vec::new(),
            alpha: Vec::new(),
            rowbuf: vec![0.0; m],
            lubuf: vec![0.0; m],
        }
    }

    fn m(&self) -> usize {
        self.rhs.len()
    }

    /// Resting value of a nonbasic variable in a given state.
    fn nonbasic_value(&self, j: usize, st: VarState) -> f64 {
        match st {
            VarState::AtLower => self.lower[j],
            VarState::AtUpper => self.upper[j],
            VarState::FreeZero => 0.0,
            // metis-lint: allow(PANIC-01): callers filter to nonbasic states; enum invariant
            VarState::Basic(_) => unreachable!("basic variable has no resting value"),
        }
    }

    /// Initial nonbasic state: prefer a finite bound, else free at zero.
    fn initial_state(&self, j: usize) -> VarState {
        if self.lower[j].is_finite() {
            VarState::AtLower
        } else if self.upper[j].is_finite() {
            VarState::AtUpper
        } else {
            VarState::FreeZero
        }
    }

    fn run(&mut self) -> Result<Solution, SolveError> {
        let m = self.m();
        let n_total = self.n_struct + self.n_slack;

        // --- Initial point: structural vars at a bound, slacks basic. ---
        self.state = (0..n_total)
            .map(|j| {
                if j < self.n_struct {
                    self.initial_state(j)
                } else {
                    VarState::Basic((j - self.n_struct) as u32)
                }
            })
            .collect();
        self.basis = (0..m).map(|i| (self.n_struct + i) as u32).collect();
        // B = I for the slack basis.
        if let BasisRepr::Dense { binv } = &mut self.repr {
            *binv = vec![0.0; m * m];
            for i in 0..m {
                binv[i * m + i] = 1.0;
            }
        }

        // Row residuals with all structural vars at their resting values.
        let mut resid = self.rhs.clone();
        for j in 0..self.n_struct {
            let v = self.nonbasic_value(j, self.state[j]);
            if v != 0.0 {
                self.a.axpy_col(j, -v, &mut resid);
            }
        }

        // --- Phase 1: add artificials for rows whose slack can't absorb
        // the residual. ---
        let mut need_phase1 = false;
        // (row, coefficient) of each artificial column.
        let mut art_rows: Vec<(usize, f64)> = Vec::new();
        self.xb = vec![0.0; m];
        for (i, &r) in resid.iter().enumerate() {
            let sj = self.n_struct + i;
            let (sl, su) = (self.lower[sj], self.upper[sj]);
            if r > su + self.opts.tol {
                // Slack pinned at its upper bound; artificial absorbs r − su.
                self.state[sj] = VarState::AtUpper;
                self.xb[i] = r - su;
                art_rows.push((i, 1.0));
                need_phase1 = true;
            } else if r < sl - self.opts.tol {
                self.state[sj] = VarState::AtLower;
                self.xb[i] = sl - r;
                // B gets a −1 on this diagonal, so B⁻¹ does too.
                if let BasisRepr::Dense { binv } = &mut self.repr {
                    binv[i * m + i] = -1.0;
                }
                art_rows.push((i, -1.0));
                need_phase1 = true;
            } else {
                self.xb[i] = r.clamp(sl.min(su), su.max(sl));
            }
        }

        if need_phase1 {
            // Append the artificial columns to the matrix and vectors.
            for &(row, coeff) in &art_rows {
                self.a.push_unit_col(row, coeff);
            }
            self.build_row_copy();
            let n_art = art_rows.len();
            let saved_cost = std::mem::replace(&mut self.cost, vec![0.0; n_total + n_art]);
            for (k, &(row, _)) in art_rows.iter().enumerate() {
                let aj = n_total + k;
                self.cost[aj] = 1.0;
                self.lower.push(0.0);
                self.upper.push(f64::INFINITY);
                self.state.push(VarState::Basic(row as u32));
                // The artificial replaces the slack as the basic variable
                // of its row; xb[row] was already set above.
                self.basis[row] = aj as u32;
            }

            self.factorize_sparse()?;
            self.optimize()?;
            self.phase1_iterations = self.iterations;

            let phase1_obj = self.current_objective();
            if phase1_obj > self.opts.tol.max(1e-6) {
                return Err(SolveError::Infeasible);
            }
            // Freeze artificials at zero for phase 2. Basic artificials at
            // value 0 are harmless: the [0,0] range blocks any move through
            // them, forcing them out of the basis on contact.
            for k in 0..n_art {
                let aj = n_total + k;
                self.lower[aj] = 0.0;
                self.upper[aj] = 0.0;
                if !matches!(self.state[aj], VarState::Basic(_)) {
                    self.state[aj] = VarState::AtLower;
                }
            }
            // Restore the real objective (zero on artificials).
            self.cost = saved_cost;
            self.cost.resize(n_total + n_art, 0.0);
        } else {
            self.build_row_copy();
            self.factorize_sparse()?;
        }

        // --- Phase 2. ---
        self.degenerate_streak = 0;
        self.optimize()?;

        self.extract_solution()
    }

    /// Snapshots the current basis over structural + slack columns.
    /// Rows whose basic variable is an artificial are remapped to their
    /// slack when possible; when not, the snapshot is unusable and a
    /// warm start from it will fall back to a cold start.
    fn snapshot(&self) -> Basis {
        let nm = self.n_struct + self.n_slack;
        let mut state: Vec<VarState> = self.state[..nm].to_vec();
        for (r, &bj) in self.basis.iter().enumerate() {
            if (bj as usize) >= nm {
                let slack = self.n_struct + r;
                if !matches!(state[slack], VarState::Basic(_)) {
                    state[slack] = VarState::Basic(r as u32);
                }
            }
        }
        Basis {
            state,
            n_struct: self.n_struct,
        }
    }

    /// Attempts a warm-started solve from a snapshotted basis: restore →
    /// dual simplex (restores primal feasibility) → primal simplex.
    ///
    /// Errors other than `Infeasible`/`Unbounded` mean "basis unusable";
    /// the caller cold-starts.
    fn run_from_basis(&mut self, warm: &Basis) -> Result<(Solution, Basis), SolveError> {
        let m = self.m();
        let nm = self.n_struct + self.n_slack;
        if warm.n_struct != self.n_struct || warm.state.len() != nm {
            return Err(SolveError::Singular);
        }
        self.warm_started = true;
        self.build_row_copy();
        // Restore statuses, reconciling nonbasic states with the current
        // bounds (a tightened bound may have invalidated the old resting
        // side).
        self.state = warm.state.clone();
        let mut basis: Vec<Option<u32>> = vec![None; m];
        let mut basic_count = 0;
        for j in 0..nm {
            match self.state[j] {
                VarState::Basic(r) => {
                    let r = r as usize;
                    if r >= m || basis[r].is_some() {
                        return Err(SolveError::Singular);
                    }
                    basis[r] = Some(j as u32);
                    basic_count += 1;
                }
                VarState::AtLower if !self.lower[j].is_finite() => {
                    self.state[j] = if self.upper[j].is_finite() {
                        VarState::AtUpper
                    } else {
                        VarState::FreeZero
                    };
                }
                VarState::AtUpper if !self.upper[j].is_finite() => {
                    self.state[j] = if self.lower[j].is_finite() {
                        VarState::AtLower
                    } else {
                        VarState::FreeZero
                    };
                }
                _ => {}
            }
        }
        if basic_count != m {
            return Err(SolveError::Singular);
        }
        // metis-lint: allow(PANIC-01): basic_count == m above guarantees every slot is filled
        self.basis = basis.into_iter().map(|b| b.unwrap()).collect();
        if let BasisRepr::Dense { binv } = &mut self.repr {
            *binv = vec![0.0; m * m];
        }
        self.xb = vec![0.0; m];
        self.refresh()?; // factorizes B and recomputes xb

        // The warm basis must be dual-feasible (reduced costs consistent
        // with the nonbasic statuses); bound changes preserve this, other
        // edits may not.
        if !self.is_dual_feasible() {
            return Err(SolveError::IterationLimit);
        }

        self.degenerate_streak = 0;
        self.dual_optimize()?;
        // Polish with the primal (usually zero pivots).
        self.optimize()?;
        let solution = self.extract_solution()?;
        let basis = self.snapshot();
        Ok((solution, basis))
    }

    /// Whether every nonbasic reduced cost is consistent with its status.
    fn is_dual_feasible(&mut self) -> bool {
        self.compute_duals();
        self.compute_reduced_costs();
        let tol = self.opts.tol.max(1e-7) * 10.0;
        for j in 0..self.state.len() {
            let d = match self.state[j] {
                VarState::Basic(_) => continue,
                _ => self.dj[j],
            };
            let ok = match self.state[j] {
                VarState::AtLower => self.lower[j] >= self.upper[j] || d >= -tol,
                VarState::AtUpper => self.lower[j] >= self.upper[j] || d <= tol,
                VarState::FreeZero => d.abs() <= tol,
                // metis-lint: allow(PANIC-01): the iteration skips basic columns; enum invariant
                VarState::Basic(_) => unreachable!(),
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Dual simplex: starting from a dual-feasible basis, drive all basic
    /// variables back inside their bounds.
    fn dual_optimize(&mut self) -> Result<(), SolveError> {
        let m = self.m();
        loop {
            if self.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit);
            }
            // Leaving row: most violated basic variable.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, at_upper)
            for r in 0..m {
                let bj = self.basis[r] as usize;
                let below = self.lower[bj] - self.xb[r];
                let above = self.xb[r] - self.upper[bj];
                let (viol, at_upper) = if below > above {
                    (below, false)
                } else {
                    (above, true)
                };
                if viol > self.opts.tol {
                    match leave {
                        Some((_, v, _)) if v >= viol => {}
                        _ => leave = Some((r, viol, at_upper)),
                    }
                }
            }
            let Some((row, _, at_upper)) = leave else {
                return Ok(()); // primal feasible
            };
            self.iterations += 1;
            self.dual_iterations += 1;

            let bj = self.basis[row] as usize;
            let target = if at_upper {
                self.upper[bj]
            } else {
                self.lower[bj]
            };
            let need_up = target > self.xb[row];

            // Reduced costs, and the pivot row of row `row` of `B⁻¹`
            // for the dual ratio test.
            self.compute_duals();
            self.compute_reduced_costs();
            self.compute_pivot_row(row);

            // Entering column: dual ratio test.
            let mut best: Option<(usize, f64, f64, f64)> = None; // (col, dir, ratio, |alpha|)
            for j in 0..self.state.len() {
                let dirs: &[f64] = match self.state[j] {
                    VarState::Basic(_) => continue,
                    VarState::AtLower if self.lower[j] >= self.upper[j] => continue,
                    VarState::AtUpper if self.lower[j] >= self.upper[j] => continue,
                    VarState::AtLower => &[1.0],
                    VarState::AtUpper => &[-1.0],
                    VarState::FreeZero => &[1.0, -1.0],
                };
                let alpha = self.alpha[j];
                if alpha.abs() < self.opts.pivot_tol {
                    continue;
                }
                let d = self.dj[j];
                for &dir in dirs {
                    // Moving j by t·dir changes xb[row] by −alpha·dir·t.
                    let rises = -alpha * dir > 0.0;
                    if rises != need_up {
                        continue;
                    }
                    // Dual feasibility keeps d·dir ≥ 0 (within tol).
                    let ratio = (d * dir).max(0.0) / alpha.abs();
                    let better = match best {
                        None => true,
                        Some((_, _, br, ba)) => {
                            ratio < br - 1e-12 || (ratio < br + 1e-12 && alpha.abs() > ba)
                        }
                    };
                    if better {
                        best = Some((j, dir, ratio, alpha.abs()));
                    }
                }
            }
            let Some((col, dir, _, _)) = best else {
                // No way to repair this row: the problem is infeasible.
                return Err(SolveError::Infeasible);
            };

            self.compute_direction(col);
            let wr = self.w[row];
            if wr.abs() < self.opts.pivot_tol {
                return Err(SolveError::Singular);
            }
            let step = (self.xb[row] - target) / (dir * wr);
            if step < -1e-7 {
                return Err(SolveError::Singular); // sign bookkeeping broke
            }
            self.apply_pivot(col, dir, row, step.max(0.0), at_upper)?;
            self.trace_step(col, Some(bj), wr.abs(), TracePricing::Dual);
        }
    }

    /// Reads the structural solution and duals off the final basis.
    fn extract_solution(&mut self) -> Result<Solution, SolveError> {
        // Extract structural values.
        let mut x = vec![0.0; self.n_struct];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = match self.state[j] {
                VarState::Basic(row) => self.xb[row as usize],
                st => self.nonbasic_value(j, st),
            };
        }
        let mut obj = 0.0;
        for (cj, xj) in self.cost.iter().zip(&x) {
            obj += cj * xj;
        }
        if self.maximize {
            obj = -obj;
        }

        // Row duals `y = c_Bᵀ B⁻¹` of the final basis, converted back to
        // the problem's own sense (we minimized the negated objective
        // when maximizing).
        self.compute_duals();
        let mut duals = self.y.clone();
        if self.maximize {
            for d in &mut duals {
                *d = -*d;
            }
        }
        let stats = SolveStats {
            iterations: self.iterations,
            phase1_iterations: self.phase1_iterations,
            dual_iterations: self.dual_iterations,
            bound_flips: self.bound_flips,
            refreshes: self.refreshes,
            warm_started: self.warm_started,
            eta_updates: self.eta_updates,
            lu_l_nnz: self.lu_l_nnz,
            lu_u_nnz: self.lu_u_nnz,
            devex_resets: self.devex_resets,
        };
        let trace = self.take_trace();
        Ok(Solution::new(obj, x, self.iterations)
            .with_stats(stats)
            .with_duals(duals)
            .with_trace(trace))
    }

    /// Which rule is choosing entering columns for the primal right now.
    fn primal_pricing(&self, bland: bool) -> TracePricing {
        if bland {
            TracePricing::Bland
        } else if self.devex {
            TracePricing::Devex
        } else {
            TracePricing::Dantzig
        }
    }

    /// Appends one step to the bounded trace ring. No-op unless
    /// `opts.trace` is set, so untraced solves pay a single branch.
    /// Call *after* the step was applied: the recorded objective is the
    /// post-step value (phase-1 steps record the phase-1 objective —
    /// total artificial infeasibility — which is what a convergence
    /// plot of feasibility restoration wants).
    fn trace_step(
        &mut self,
        entering: usize,
        leaving: Option<usize>,
        pivot: f64,
        pricing: TracePricing,
    ) {
        if !self.opts.trace {
            return;
        }
        let mut objective = self.current_objective();
        if self.maximize {
            objective = -objective;
        }
        let record = TraceRecord {
            iteration: self.iterations,
            entering,
            leaving,
            objective,
            pivot,
            pricing,
        };
        if self.trace.len() < LpTrace::CAPACITY {
            self.trace.push(record);
        } else {
            self.trace[self.trace_start] = record;
            self.trace_start = (self.trace_start + 1) % LpTrace::CAPACITY;
            self.trace_dropped += 1;
        }
    }

    /// Drains the trace ring into chronological order for the solution.
    fn take_trace(&mut self) -> LpTrace {
        let mut records = std::mem::take(&mut self.trace);
        records.rotate_left(self.trace_start);
        self.trace_start = 0;
        let dropped = self.trace_dropped;
        self.trace_dropped = 0;
        LpTrace { records, dropped }
    }

    /// Objective of the current basic solution under `self.cost`.
    fn current_objective(&self) -> f64 {
        let mut obj = 0.0;
        for (i, &bj) in self.basis.iter().enumerate() {
            obj += self.cost[bj as usize] * self.xb[i];
        }
        for (j, &st) in self.state.iter().enumerate() {
            if !matches!(st, VarState::Basic(_)) && self.cost[j] != 0.0 {
                obj += self.cost[j] * self.nonbasic_value(j, st);
            }
        }
        obj
    }

    /// Runs primal simplex iterations until optimal for the current costs.
    fn optimize(&mut self) -> Result<(), SolveError> {
        if self.devex {
            // Fresh reference framework: the current basis defines the
            // approximation, so every weight restarts at 1. (The dual
            // simplex does not maintain weights; re-entering here after
            // a warm start resets them too.)
            self.devex_w.clear();
            self.devex_w.resize(self.state.len(), 1.0);
        }
        loop {
            if self.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit);
            }
            let bland = self.degenerate_streak >= self.opts.bland_after;
            match self.price(bland) {
                PriceStep::Optimal => return Ok(()),
                PriceStep::Enter { col, dir } => {
                    self.iterations += 1;
                    self.compute_direction(col);
                    match self.ratio_test(col, dir) {
                        Ratio::Unbounded => return Err(SolveError::Unbounded),
                        Ratio::BoundFlip { step } => {
                            self.apply_bound_flip(col, dir, step);
                            self.degenerate_streak = 0;
                            self.trace_step(col, None, 0.0, self.primal_pricing(bland));
                        }
                        Ratio::Pivot {
                            row,
                            step,
                            to_upper,
                        } => {
                            if step <= self.opts.tol {
                                self.degenerate_streak += 1;
                            } else {
                                self.degenerate_streak = 0;
                            }
                            // Weight maintenance continues through Bland
                            // episodes so the framework is current when
                            // devex pricing resumes.
                            if self.devex {
                                self.update_devex_weights(col, row);
                            }
                            let leaving = self.basis[row] as usize;
                            let pivot_mag = self.w[row].abs();
                            self.apply_pivot(col, dir, row, step, to_upper)?;
                            self.trace_step(
                                col,
                                Some(leaving),
                                pivot_mag,
                                self.primal_pricing(bland),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Computes duals `y = c_Bᵀ B⁻¹` and the reduced costs, and picks an
    /// entering column.
    ///
    /// Under Bland's rule every column is scanned and the first improving
    /// index enters (the anti-cycling guarantee needs the global minimum
    /// index). Devex scans every column and weighs reduced costs by the
    /// reference weights. Otherwise Dantzig pricing sweeps every column
    /// and the most violating reduced cost enters.
    fn price(&mut self, bland: bool) -> PriceStep {
        self.compute_duals();
        self.compute_reduced_costs();
        let tol = self.opts.tol;
        let ncols = self.state.len();
        if bland {
            for j in 0..ncols {
                let (dir, score) = self.price_score(j);
                if score > tol {
                    return PriceStep::Enter { col: j, dir };
                }
            }
            return PriceStep::Optimal;
        }
        if self.devex {
            return self.price_devex(tol);
        }
        self.price_dantzig(tol)
    }

    /// Devex pricing: the nonbasic column maximizing `dⱼ²/γⱼ` enters,
    /// earliest index on ties.
    fn price_devex(&mut self, tol: f64) -> PriceStep {
        let ncols = self.state.len();
        // Phase-1 artificials may have grown the column set since the
        // weights were initialized; new columns start at the reference
        // weight 1.
        if self.devex_w.len() < ncols {
            self.devex_w.resize(ncols, 1.0);
        }
        let mut best: Option<(usize, f64, f64)> = None; // (col, dir, merit)
        for j in 0..ncols {
            let (dir, score) = self.price_score(j);
            if score > tol {
                let merit = score * score / self.devex_w[j];
                match best {
                    Some((_, _, m)) if m >= merit => {}
                    _ => best = Some((j, dir, merit)),
                }
            }
        }
        match best {
            Some((col, dir, _)) => PriceStep::Enter { col, dir },
            None => PriceStep::Optimal,
        }
    }

    /// Devex weight maintenance for the pivot `(col enters, row
    /// leaves)`. Must run *before* [`Simplex::apply_pivot`]: the update
    /// reads the pivot row of the **outgoing** basis inverse and the
    /// entering direction still held in `self.w`.
    ///
    /// Following Forrest–Goldfarb: with pivot row `αⱼ = ρᵀ aⱼ`
    /// (`ρ` = row `row` of `B⁻¹`) and entering pivot `α_q = w[row]`,
    ///
    /// ```text
    /// γⱼ ← max(γⱼ, (αⱼ/α_q)²·γ_q)        (nonbasic j)
    /// γ_p ← max(γ_q/α_q², 1)              (leaving variable p)
    /// ```
    fn update_devex_weights(&mut self, col: usize, row: usize) {
        let alpha_q = self.w[row];
        if alpha_q == 0.0 {
            return; // apply_pivot will reject this pivot anyway
        }
        if self.devex_w.len() < self.state.len() {
            self.devex_w.resize(self.state.len(), 1.0);
        }
        let gamma_q = self.devex_w[col];
        self.compute_pivot_row(row);
        let mut max_w: f64 = 1.0;
        for j in 0..self.state.len() {
            if j == col || matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let alpha_j = self.alpha[j];
            if alpha_j != 0.0 {
                let ratio = alpha_j / alpha_q;
                let cand = ratio * ratio * gamma_q;
                if cand > self.devex_w[j] {
                    self.devex_w[j] = cand;
                }
            }
            max_w = max_w.max(self.devex_w[j]);
        }
        let leaving = self.basis[row] as usize;
        self.devex_w[leaving] = (gamma_q / (alpha_q * alpha_q)).max(1.0);
        max_w = max_w.max(self.devex_w[leaving]);
        if max_w > DEVEX_RESET_THRESHOLD {
            // The reference framework has degraded; restart it from the
            // current basis.
            self.devex_w.fill(1.0);
            self.devex_resets += 1;
        }
    }

    /// Best improving move of column `j` against the reduced costs in
    /// `self.dj`: `(dir, score)`, where moving `j` in direction `dir`
    /// changes the objective at rate `−score`. The score is `−∞` for
    /// basic and fixed columns, and a column is an entering candidate
    /// when `score > tol`. Written as selects rather than nested
    /// branches: the sweeps call it for every column on every pivot.
    fn price_score(&self, j: usize) -> (f64, f64) {
        let movable = self.lower[j] < self.upper[j];
        let (can_rise, can_fall) = match self.state[j] {
            VarState::Basic(_) => (false, false),
            VarState::AtLower => (movable, false),
            VarState::AtUpper => (false, movable),
            VarState::FreeZero => (true, true),
        };
        let d = self.dj[j];
        let rise = if can_rise { -d } else { f64::NEG_INFINITY };
        let fall = if can_fall { d } else { f64::NEG_INFINITY };
        if rise > fall {
            (1.0, rise)
        } else {
            (-1.0, fall)
        }
    }

    /// Dantzig pricing over every column: the most violating reduced
    /// cost wins, earliest index on ties.
    fn price_dantzig(&self, tol: f64) -> PriceStep {
        // A candidate must beat `tol` and then every earlier candidate.
        let mut bar = tol;
        let mut best: Option<(usize, f64)> = None; // (col, dir)
        for j in 0..self.state.len() {
            let (dir, score) = self.price_score(j);
            if score > bar {
                bar = score;
                best = Some((j, dir));
            }
        }
        match best {
            Some((col, dir)) => PriceStep::Enter { col, dir },
            None => PriceStep::Optimal,
        }
    }

    /// Computes the duals `y = c_Bᵀ B⁻¹` into `self.y` (row space).
    fn compute_duals(&mut self) {
        let m = self.rhs.len();
        let Simplex {
            repr,
            y,
            cost,
            basis,
            rowbuf,
            lubuf,
            ..
        } = self;
        match repr {
            BasisRepr::Dense { binv } => {
                for yj in y.iter_mut() {
                    *yj = 0.0;
                }
                for (i, &bj) in basis.iter().enumerate() {
                    let cb = cost[bj as usize];
                    if cb != 0.0 {
                        let row = &binv[i * m..(i + 1) * m];
                        for (yj, &bij) in y.iter_mut().zip(row) {
                            *yj += cb * bij;
                        }
                    }
                }
            }
            BasisRepr::Sparse { lu, etas } => {
                // c_B in slot space, pushed back through the etas, then
                // through the factors.
                for (ci, &bj) in rowbuf.iter_mut().zip(basis.iter()) {
                    *ci = cost[bj as usize];
                }
                etas.btran(rowbuf);
                lu.btran(rowbuf, y, lubuf);
            }
        }
    }

    /// Reduced costs `dⱼ = cⱼ − Σᵣ aᵣⱼ·yᵣ` of every column into
    /// `self.dj`, from the duals in `self.y`: one scatter of the nonzero
    /// duals over the row-major copy (see [`CscMatrix::scatter_mul`]).
    fn compute_reduced_costs(&mut self) {
        let Simplex {
            a_rows,
            cost,
            y,
            dj,
            ..
        } = self;
        a_rows.scatter_mul(y, dj);
        for (d, &c) in dj.iter_mut().zip(cost.iter()) {
            *d = c - *d;
        }
    }

    /// Pivot row `αⱼ = Σᵣ aᵣⱼ·ρᵣ` of every column into `self.alpha`,
    /// where `ρ` is row `row` of `B⁻¹`: one scatter of the nonzero `ρᵣ`
    /// over the row-major copy.
    fn compute_pivot_row(&mut self, row: usize) {
        self.btran_unit(row);
        self.a_rows.scatter_mul(&self.rho, &mut self.alpha);
    }

    /// (Re)builds the row-major copy of `a` and sizes the column-space
    /// buffers. Call once the column set is final for the solve.
    fn build_row_copy(&mut self) {
        self.a_rows = self.a.transpose();
        let ncols = self.a.ncols();
        self.dj.resize(ncols, 0.0);
        self.alpha.resize(ncols, 0.0);
    }

    /// Row `row` of `B⁻¹` (= `B⁻ᵀ e_row` in row space) into `self.rho`.
    fn btran_unit(&mut self, row: usize) {
        let m = self.rhs.len();
        let Simplex {
            repr,
            rho,
            rowbuf,
            lubuf,
            ..
        } = self;
        match repr {
            BasisRepr::Dense { binv } => rho.copy_from_slice(&binv[row * m..(row + 1) * m]),
            BasisRepr::Sparse { lu, etas } => {
                rowbuf.fill(0.0);
                rowbuf[row] = 1.0;
                etas.btran(rowbuf);
                lu.btran(rowbuf, rho, lubuf);
            }
        }
    }

    /// Rebuilds the sparse factorization from the current basis and
    /// drops the accumulated updates. No-op on the dense backend.
    fn factorize_sparse(&mut self) -> Result<(), SolveError> {
        let Simplex {
            repr,
            a,
            basis,
            lu_l_nnz,
            lu_u_nnz,
            ..
        } = self;
        match repr {
            BasisRepr::Sparse { lu, etas } => {
                *lu = LuFactors::factor(a, basis, 1e-12)?;
                etas.clear();
                *lu_l_nnz = lu.l_nnz();
                *lu_u_nnz = lu.u_nnz();
            }
            BasisRepr::Dense { .. } => {}
        }
        Ok(())
    }

    /// `w = B⁻¹ · A[:, col]`.
    fn compute_direction(&mut self, col: usize) {
        let m = self.rhs.len();
        let Simplex {
            repr,
            a,
            w,
            rowbuf,
            lubuf,
            ..
        } = self;
        match repr {
            BasisRepr::Dense { binv } => {
                for wi in w.iter_mut() {
                    *wi = 0.0;
                }
                for (r, v) in a.col(col).iter() {
                    // w += v * B^{-1}[:, r]
                    for i in 0..m {
                        w[i] += v * binv[i * m + r];
                    }
                }
            }
            BasisRepr::Sparse { lu, etas } => {
                rowbuf.fill(0.0);
                for (r, v) in a.col(col).iter() {
                    rowbuf[r] = v;
                }
                lu.ftran(rowbuf, w, lubuf);
                etas.ftran(w);
            }
        }
    }

    /// Finds the blocking constraint for the entering column moving by
    /// `t ≥ 0` in direction `dir` (basics change by `−t·dir·w`).
    fn ratio_test(&self, col: usize, dir: f64) -> Ratio {
        let ptol = self.opts.pivot_tol;
        let range = self.upper[col] - self.lower[col];
        let mut t_best = if range.is_finite() {
            range
        } else {
            f64::INFINITY
        };
        let mut blocking: Option<(usize, bool)> = None; // (row, leaves_at_upper)

        for i in 0..self.m() {
            let delta = -dir * self.w[i];
            let bj = self.basis[i] as usize;
            if delta > ptol {
                // Basic variable increases; blocked by its upper bound.
                let ub = self.upper[bj];
                if ub.is_finite() {
                    let t = (ub - self.xb[i]) / delta;
                    if t < t_best - 1e-12 || (t < t_best + 1e-12 && blocking.is_none()) {
                        t_best = t.max(0.0);
                        blocking = Some((i, true));
                    }
                }
            } else if delta < -ptol {
                let lb = self.lower[bj];
                if lb.is_finite() {
                    let t = (lb - self.xb[i]) / delta;
                    if t < t_best - 1e-12 || (t < t_best + 1e-12 && blocking.is_none()) {
                        t_best = t.max(0.0);
                        blocking = Some((i, false));
                    }
                }
            }
        }

        match blocking {
            None if t_best.is_infinite() => Ratio::Unbounded,
            None => Ratio::BoundFlip { step: t_best },
            Some((row, to_upper)) => Ratio::Pivot {
                row,
                step: t_best,
                to_upper,
            },
        }
    }

    /// Entering variable traverses its whole range without any basic
    /// variable blocking: flip it to the opposite bound.
    fn apply_bound_flip(&mut self, col: usize, dir: f64, step: f64) {
        self.bound_flips += 1;
        for i in 0..self.m() {
            self.xb[i] -= step * dir * self.w[i];
        }
        self.state[col] = match self.state[col] {
            VarState::AtLower => VarState::AtUpper,
            VarState::AtUpper => VarState::AtLower,
            other => other, // free variables never bound-flip (infinite range)
        };
    }

    fn apply_pivot(
        &mut self,
        col: usize,
        dir: f64,
        row: usize,
        step: f64,
        to_upper: bool,
    ) -> Result<(), SolveError> {
        let m = self.m();
        let pivot = self.w[row];
        if pivot.abs() < self.opts.pivot_tol {
            return Err(SolveError::Singular);
        }

        // Update basic values and the entering variable's value.
        for i in 0..m {
            self.xb[i] -= step * dir * self.w[i];
        }
        let entering_start = match self.state[col] {
            // metis-lint: allow(PANIC-01): pricing only selects nonbasic columns; enum invariant
            VarState::Basic(_) => unreachable!("entering variable is basic"),
            st => self.nonbasic_value(col, st),
        };
        let entering_value = entering_start + dir * step;

        // Leaving variable exits at the bound it hit.
        let leaving = self.basis[row] as usize;
        self.state[leaving] = if to_upper {
            VarState::AtUpper
        } else {
            VarState::AtLower
        };
        // The leaving variable now rests on this bound through its state
        // alone. Debug builds check that `xb[row]` really reached it; no
        // value is snapped onto the bound, since that would move later
        // pivots.
        let snapped = if to_upper {
            self.upper[leaving]
        } else {
            self.lower[leaving]
        };
        debug_assert!(
            (self.xb[row] - snapped).abs() < 1e-4,
            "leaving variable far from its bound"
        );
        let _ = snapped;

        self.basis[row] = col as u32;
        self.state[col] = VarState::Basic(row as u32);
        self.xb[row] = entering_value;

        match &mut self.repr {
            BasisRepr::Dense { binv } => {
                // Elementary row update of B^{-1}: pivot row divided by
                // w_row, others eliminated.
                let inv_pivot = 1.0 / pivot;
                // Split borrow: copy pivot row once.
                let prow: Vec<f64> = binv[row * m..(row + 1) * m]
                    .iter()
                    .map(|&v| v * inv_pivot)
                    .collect();
                for i in 0..m {
                    if i == row {
                        continue;
                    }
                    let wi = self.w[i];
                    if wi != 0.0 {
                        let base = i * m;
                        for (k, &pv) in prow.iter().enumerate() {
                            binv[base + k] -= wi * pv;
                        }
                    }
                }
                binv[row * m..(row + 1) * m].copy_from_slice(&prow);
            }
            BasisRepr::Sparse { etas, .. } => {
                // Product-form update: B' = B·E with E the identity whose
                // column `row` is the entering direction w.
                etas.push(row, &self.w);
                self.eta_updates += 1;
            }
        }

        self.pivots_since_refresh += 1;
        if self.pivots_since_refresh >= self.opts.refresh_every {
            self.refresh()?;
        }
        Ok(())
    }

    /// Rebuilds the basis representation from scratch (refactorization)
    /// and recomputes the basic values.
    fn refresh(&mut self) -> Result<(), SolveError> {
        self.refreshes += 1;
        self.pivots_since_refresh = 0;
        match self.opts.basis {
            BasisBackend::Dense => self.refresh_dense()?,
            BasisBackend::SparseLu => self.factorize_sparse()?,
        }
        // xb = B^{-1} (b − N x_N)
        let mut resid = self.rhs.clone();
        for (j, &st) in self.state.iter().enumerate() {
            if matches!(st, VarState::Basic(_)) {
                continue;
            }
            let v = self.nonbasic_value(j, st);
            if v != 0.0 {
                self.a.axpy_col(j, -v, &mut resid);
            }
        }
        let m = self.m();
        let Simplex {
            repr, xb, lubuf, ..
        } = self;
        match repr {
            BasisRepr::Dense { binv } => {
                for (i, xi) in xb.iter_mut().enumerate() {
                    let base = i * m;
                    *xi = binv[base..base + m]
                        .iter()
                        .zip(&resid)
                        .map(|(b, r)| b * r)
                        .sum();
                }
            }
            BasisRepr::Sparse { lu, .. } => {
                // The eta file was just cleared; the factors alone are B.
                lu.ftran(&resid, xb, lubuf);
            }
        }
        Ok(())
    }

    /// Recomputes the dense explicit `B⁻¹` by Gauss-Jordan elimination.
    fn refresh_dense(&mut self) -> Result<(), SolveError> {
        let m = self.m();
        // Assemble B column-wise into an augmented [B | I] dense matrix and
        // run Gauss-Jordan with partial pivoting.
        let mut aug = vec![0.0; m * 2 * m];
        let width = 2 * m;
        for (i, &bj) in self.basis.iter().enumerate() {
            for (r, v) in self.a.col(bj as usize).iter() {
                aug[r * width + i] = v;
            }
        }
        for i in 0..m {
            aug[i * width + m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot.
            let mut best = col;
            let mut best_abs = aug[col * width + col].abs();
            for r in (col + 1)..m {
                let a = aug[r * width + col].abs();
                if a > best_abs {
                    best_abs = a;
                    best = r;
                }
            }
            if best_abs < 1e-12 {
                return Err(SolveError::Singular);
            }
            if best != col {
                for k in 0..width {
                    aug.swap(col * width + k, best * width + k);
                }
            }
            let inv = 1.0 / aug[col * width + col];
            for k in 0..width {
                aug[col * width + k] *= inv;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = aug[r * width + col];
                if f != 0.0 {
                    for k in 0..width {
                        aug[r * width + k] -= f * aug[col * width + k];
                    }
                }
            }
        }
        if let BasisRepr::Dense { binv } = &mut self.repr {
            if binv.len() != m * m {
                *binv = vec![0.0; m * m];
            }
            for i in 0..m {
                for k in 0..m {
                    binv[i * m + k] = aug[i * width + m + k];
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Relation, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6,
            "expected {b}, got {a} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn trivial_bounds_only() {
        // min 2x − 3y, 0 ≤ x ≤ 1, 0 ≤ y ≤ 2 → x=0, y=2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(2.0, 0.0, 1.0);
        let y = p.add_var(-3.0, 0.0, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), -6.0);
        assert_close(s.value(x), 0.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn classic_2d_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_and_ge_need_phase1() {
        // min x + y s.t. x + y = 2, x ≥ 0.5 → obj 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 0.5);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 2.0);
        assert!(s.value(x) >= 0.5 - 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 1.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);

        // A row with no nonzero coefficient reads `0 ≥ 3` (or `0 = 3`):
        // its slack alone cannot absorb the right-hand side.
        for relation in [Relation::Ge, Relation::Eq] {
            let mut empty = Problem::new(Sense::Minimize);
            let x = empty.add_var(1.0, 0.0, 5.0);
            empty.add_constraint([(x, 1.0)], Relation::Le, 4.0);
            empty.add_constraint([], relation, 3.0);
            assert_eq!(empty.solve().unwrap_err(), SolveError::Infeasible);

            let mut zero = Problem::new(Sense::Minimize);
            let x = zero.add_var(1.0, 0.0, 5.0);
            zero.add_constraint([(x, 0.0)], relation, 3.0);
            assert_eq!(zero.solve().unwrap_err(), SolveError::Infeasible);
        }
    }

    #[test]
    fn trace_is_read_only_and_complete() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);

        let plain = p.solve().unwrap();
        let traced = p
            .solve_with(&SolveOptions {
                trace: true,
                ..SolveOptions::default()
            })
            .unwrap();

        // Tracing never changes the pivot sequence or the answer.
        assert_eq!(plain.values(), traced.values());
        assert_eq!(plain.objective(), traced.objective());
        assert_eq!(plain.stats(), traced.stats());
        assert!(plain.trace().records.is_empty(), "untraced solve is clean");

        let trace = traced.trace();
        assert_eq!(trace.dropped, 0);
        // One record per pivot or bound flip.
        assert_eq!(
            trace.total() as usize,
            traced.stats().iterations + traced.stats().bound_flips
        );
        // Iteration indices are 1-based, strictly increasing, and the
        // last record lands on the solve's final objective.
        for (k, r) in trace.records.iter().enumerate() {
            if k > 0 {
                assert!(r.iteration > trace.records[k - 1].iteration);
            }
            assert!(r.leaving.is_some() || r.pivot == 0.0);
        }
        let last = trace.records.last().unwrap();
        assert!((last.objective - traced.objective()).abs() < 1e-9);
        assert_eq!(last.pricing, TracePricing::Dantzig);
    }

    #[test]
    fn trace_records_dual_pivots_on_warm_restarts() {
        // Solve, tighten a bound so the old basis is primal-infeasible
        // but dual-feasible, and reoptimize warm with tracing on.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let opts = SolveOptions {
            trace: true,
            ..SolveOptions::default()
        };
        let (sol, basis) = p.solve_with_basis(&opts, None).unwrap();
        assert!(sol.trace().total() > 0);

        let mut q = p.clone();
        q.set_bounds(y, 0.0, 2.0);
        let (resol, _) = q.solve_with_basis(&opts, Some(&basis)).unwrap();
        assert!(resol.stats().warm_started);
        if resol.stats().dual_iterations > 0 {
            assert!(resol
                .trace()
                .records
                .iter()
                .any(|r| r.pricing == TracePricing::Dual));
        }
    }

    #[test]
    fn infeasible_conflicting_rows() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::NEG_INFINITY, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Ge, 3.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(0.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);

        // A profitable unbounded column that appears in no row, with and
        // without other (bounded) rows around it.
        let mut lone = Problem::new(Sense::Maximize);
        lone.add_var(1.0, 0.0, f64::INFINITY);
        assert_eq!(lone.solve().unwrap_err(), SolveError::Unbounded);

        let mut q = Problem::new(Sense::Maximize);
        let x = q.add_var(2.0, 0.0, f64::INFINITY);
        q.add_var(1.0, 0.0, f64::INFINITY);
        q.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        assert_eq!(q.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn free_variable() {
        // min |x| style: min x s.t. x ≥ −5 handled via free var + Ge row.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, f64::NEG_INFINITY, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Ge, -5.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), -5.0);
        assert_close(s.value(x), -5.0);
    }

    #[test]
    fn negative_rhs_le() {
        // min x s.t. −x ≤ −3  (i.e. x ≥ 3)
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, -1.0)], Relation::Le, -3.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 3.0);
    }

    #[test]
    fn bound_flip_path() {
        // max x + y s.t. x + y ≤ 10, 0 ≤ x ≤ 2, 0 ≤ y ≤ 3 → 5.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, 2.0);
        let y = p.add_var(1.0, 0.0, 3.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 5.0);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 1.5, 1.5);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 1.5);
        assert_close(s.objective(), 4.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        for k in 1..=6 {
            p.add_constraint(
                [(x, 1.0), (y, k as f64)],
                Relation::Le,
                1.0 + (k as f64 - 1.0),
            );
        }
        p.add_constraint([(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint([(y, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert!(s.objective() <= 2.0 + 1e-6);
        assert!(p.max_violation(s.values()).max(0.0) < 1e-6);
    }

    #[test]
    fn transportation_problem() {
        // 2 supplies (10, 15), 3 demands (8, 7, 10), min cost.
        let cost = [[4.0, 6.0, 9.0], [5.0, 3.0, 8.0]];
        let supply = [10.0, 15.0];
        let demand = [8.0, 7.0, 10.0];
        let mut p = Problem::new(Sense::Minimize);
        let mut v = [[None; 3]; 2];
        for i in 0..2 {
            for j in 0..3 {
                v[i][j] = Some(p.add_var(cost[i][j], 0.0, f64::INFINITY));
            }
        }
        for i in 0..2 {
            p.add_constraint(
                (0..3).map(|j| (v[i][j].unwrap(), 1.0)),
                Relation::Le,
                supply[i],
            );
        }
        for j in 0..3 {
            p.add_constraint(
                (0..2).map(|i| (v[i][j].unwrap(), 1.0)),
                Relation::Ge,
                demand[j],
            );
        }
        let s = p.solve().unwrap();
        // Optimal: x11=8, x13=2, x22=7, x23=8 → 32+18+21+64 = 135.
        assert_close(s.objective(), 135.0);
        assert!(p.max_violation(s.values()) < 1e-6);
    }

    #[test]
    fn maximize_equals_negated_minimize() {
        let build = |sense| {
            let mut p = Problem::new(sense);
            let x = p.add_var(if sense == Sense::Maximize { 2.0 } else { -2.0 }, 0.0, 5.0);
            let y = p.add_var(if sense == Sense::Maximize { 1.0 } else { -1.0 }, 0.0, 5.0);
            p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 6.0);
            p
        };
        let smax = build(Sense::Maximize).solve().unwrap();
        let smin = build(Sense::Minimize).solve().unwrap();
        assert_close(smax.objective(), -smin.objective());
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(Sense::Minimize);
        let s = p.solve().unwrap();
        assert_eq!(s.objective(), 0.0);
        assert!(s.values().is_empty());
    }

    #[test]
    fn no_constraints_bounded_vars() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(7.0, -1.0, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.objective(), 14.0);
    }

    #[test]
    fn iteration_limit_error() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        let opts = SolveOptions {
            max_iterations: 1,
            ..SolveOptions::default()
        };
        // One pivot is not enough to reach optimality here.
        match p.solve_with(&opts) {
            Err(SolveError::IterationLimit) | Ok(_) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale (1955): cycles forever under naive Dantzig pricing with
        // exact arithmetic. The degenerate-streak → Bland fallback must
        // terminate at the optimum −1/20.
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_var(-0.75, 0.0, f64::INFINITY);
        let x2 = p.add_var(150.0, 0.0, f64::INFINITY);
        let x3 = p.add_var(-0.02, 0.0, f64::INFINITY);
        let x4 = p.add_var(6.0, 0.0, f64::INFINITY);
        p.add_constraint(
            [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint([(x3, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), -0.05);
    }

    #[test]
    fn klee_minty_terminates() {
        // Klee–Minty cube (n = 6): exponential for worst-case pivot
        // rules, but must finish well within the iteration budget.
        let n = 6;
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(2f64.powi((n - 1 - j) as i32), 0.0, f64::INFINITY))
            .collect();
        for i in 0..n {
            let mut terms: Vec<(crate::model::VarId, f64)> = Vec::new();
            for (j, &vj) in vars.iter().enumerate().take(i) {
                terms.push((vj, 2f64.powi((i - j + 1) as i32)));
            }
            terms.push((vars[i], 1.0));
            p.add_constraint(terms, Relation::Le, 5f64.powi(i as i32 + 1));
        }
        let s = p.solve().unwrap();
        assert_close(s.objective(), 5f64.powi(n as i32));
    }

    #[test]
    fn random_dense_lp_feasible_and_stable() {
        // A moderately sized LP exercising the periodic refresh path.
        let n = 30;
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(((j * 7) % 11) as f64 - 3.0, 0.0, 4.0))
            .collect();
        for i in 0..n {
            let terms: Vec<_> = (0..n)
                .filter(|j| (i + j) % 3 == 0)
                .map(|j| (vars[j], 1.0 + ((i * j) % 5) as f64))
                .collect();
            if !terms.is_empty() {
                p.add_constraint(terms, Relation::Ge, 2.0 + (i % 4) as f64);
            }
        }
        let s = p.solve().unwrap();
        assert!(p.max_violation(s.values()) < 1e-6);
        let opts = SolveOptions {
            refresh_every: 5,
            ..SolveOptions::default()
        };
        let s2 = p.solve_with(&opts).unwrap();
        assert_close(s.objective(), s2.objective());
    }

    #[test]
    fn duals_of_textbook_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18.
        // Known shadow prices: 0, 3/2, 1.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        let r1 = p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        let r2 = p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        let r3 = p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert_close(s.dual(r1).unwrap(), 0.0);
        assert_close(s.dual(r2).unwrap(), 1.5);
        assert_close(s.dual(r3).unwrap(), 1.0);
        assert_eq!(s.duals().unwrap().len(), 3);
    }

    #[test]
    fn duals_predict_rhs_perturbation() {
        // Shadow price = marginal objective change for a small rhs bump.
        let build = |rhs: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var(2.0, 0.0, f64::INFINITY);
            let y = p.add_var(3.0, 0.0, f64::INFINITY);
            let row = p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, rhs);
            (p, row)
        };
        let (p, row) = build(10.0);
        let s = p.solve().unwrap();
        let dual = s.dual(row).unwrap();
        let (p2, _) = build(10.5);
        let s2 = p2.solve().unwrap();
        assert_close(s2.objective() - s.objective(), dual * 0.5);
    }

    #[test]
    fn warm_start_matches_cold_after_bound_tightening() {
        // The branch-and-bound pattern: solve, tighten one variable's
        // bound, re-solve from the old basis via the dual simplex.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let opts = SolveOptions::default();
        let (s0, basis) = p.solve_with_basis(&opts, None).unwrap();
        assert_close(s0.objective(), 36.0); // (2, 6)

        // Tighten y ≤ 4: the old optimum y = 6 violates it.
        let mut q = p.clone();
        q.set_bounds(y, 0.0, 4.0);
        let (warm, _) = q.solve_with_basis(&opts, Some(&basis)).unwrap();
        let cold = q.solve().unwrap();
        assert_close(warm.objective(), cold.objective());
        assert!(q.max_violation(warm.values()) < 1e-6);
    }

    #[test]
    fn warm_start_chain_stays_correct() {
        // Repeated tightenings, always reusing the previous basis.
        let build = || {
            let mut p = Problem::new(Sense::Minimize);
            let vars: Vec<_> = (0..6)
                .map(|i| p.add_var(1.0 + i as f64 * 0.5, 0.0, 10.0))
                .collect();
            for i in 0..6 {
                let j = (i + 1) % 6;
                p.add_constraint([(vars[i], 1.0), (vars[j], 1.0)], Relation::Ge, 4.0);
            }
            (p, vars)
        };
        let (mut p, vars) = build();
        let opts = SolveOptions::default();
        let (_, mut basis) = p.solve_with_basis(&opts, None).unwrap();
        for step in 0..4 {
            let v = vars[step % vars.len()];
            let (lo, up) = p.bounds(v);
            p.set_bounds(v, (lo + 1.0).min(up), up);
            let (warm, b) = p.solve_with_basis(&opts, Some(&basis)).unwrap();
            basis = b;
            let cold = p.solve().unwrap();
            assert_close(warm.objective(), cold.objective());
        }
    }

    #[test]
    fn warm_start_detects_infeasibility() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 10.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 4.0);
        let opts = SolveOptions::default();
        let (_, basis) = p.solve_with_basis(&opts, None).unwrap();
        let mut q = p.clone();
        q.set_bounds(x, 0.0, 2.0); // conflicts with x ≥ 4
        assert_eq!(
            q.solve_with_basis(&opts, Some(&basis)).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn warm_start_with_garbage_basis_falls_back() {
        // A basis from an unrelated problem must not corrupt the result.
        let mut other = Problem::new(Sense::Minimize);
        let a = other.add_var(1.0, 0.0, 1.0);
        other.add_constraint([(a, 1.0)], Relation::Le, 1.0);
        let opts = SolveOptions::default();
        let (_, alien) = other.solve_with_basis(&opts, None).unwrap();

        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, 5.0);
        let y = p.add_var(2.0, 0.0, 5.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 6.0);
        let (sol, _) = p.solve_with_basis(&opts, Some(&alien)).unwrap();
        assert_close(sol.objective(), 11.0); // y = 5, x = 1
    }

    #[test]
    fn stats_report_work_counters() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let opts = SolveOptions::default();
        let (cold, basis) = p.solve_with_basis(&opts, None).unwrap();
        let cs = cold.stats();
        assert!(cs.iterations > 0);
        assert_eq!(cs.iterations, cold.iterations());
        assert!(!cs.warm_started);
        assert_eq!(cs.dual_iterations, 0);

        // Tighten a bound and reoptimize warm: the dual simplex runs.
        let mut q = p.clone();
        q.set_bounds(y, 0.0, 4.0);
        let (warm, _) = q.solve_with_basis(&opts, Some(&basis)).unwrap();
        let ws = warm.stats();
        assert!(ws.warm_started);
        assert!(ws.dual_iterations > 0);
        assert!(ws.refreshes >= 1, "warm start refactorizes the basis");
        assert!(ws.iterations >= ws.dual_iterations);
    }

    #[test]
    fn refresh_keeps_answers_stable() {
        // Force frequent refreshes and compare against default options.
        let build = || {
            let mut p = Problem::new(Sense::Minimize);
            let n = 12;
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_var(1.0 + (i as f64) * 0.3, 0.0, 4.0))
                .collect();
            for i in 0..n {
                let j = (i + 1) % n;
                p.add_constraint([(vars[i], 1.0), (vars[j], 1.0)], Relation::Ge, 3.0);
            }
            p
        };
        let s_default = build().solve().unwrap();
        let opts = SolveOptions {
            refresh_every: 1,
            ..SolveOptions::default()
        };
        let s_refresh = build().solve_with(&opts).unwrap();
        assert_close(s_default.objective(), s_refresh.objective());
    }

    /// A moderately sized, non-degenerate LP used by the engine A/B
    /// tests below (same construction as
    /// `random_dense_lp_feasible_and_stable`).
    fn medium_lp() -> Problem {
        let n = 30;
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(((j * 7) % 11) as f64 - 3.0, 0.0, 4.0))
            .collect();
        for i in 0..n {
            let terms: Vec<_> = (0..n)
                .filter(|j| (i + j) % 3 == 0)
                .map(|j| (vars[j], 1.0 + ((i * j) % 5) as f64))
                .collect();
            if !terms.is_empty() {
                p.add_constraint(terms, Relation::Ge, 2.0 + (i % 4) as f64);
            }
        }
        p
    }

    #[test]
    fn devex_pricing_matches_dantzig() {
        let p = medium_lp();
        let reference = p.solve().unwrap();
        for basis in [BasisBackend::SparseLu, BasisBackend::Dense] {
            let opts = SolveOptions {
                pricing: Pricing::Devex,
                basis,
                verify: true,
                ..SolveOptions::default()
            };
            let s = p.solve_with(&opts).unwrap();
            assert_close(s.objective(), reference.objective());
            assert!(p.max_violation(s.values()) < 1e-6);
        }
    }

    #[test]
    fn devex_survives_degenerate_and_worst_case_lps() {
        // Beale's cycling example and the Klee–Minty cube under devex:
        // the Bland fallback and weight maintenance must coexist.
        let mut beale = Problem::new(Sense::Minimize);
        let x1 = beale.add_var(-0.75, 0.0, f64::INFINITY);
        let x2 = beale.add_var(150.0, 0.0, f64::INFINITY);
        let x3 = beale.add_var(-0.02, 0.0, f64::INFINITY);
        let x4 = beale.add_var(6.0, 0.0, f64::INFINITY);
        beale.add_constraint(
            [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        beale.add_constraint(
            [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        beale.add_constraint([(x3, 1.0)], Relation::Le, 1.0);
        let opts = SolveOptions {
            pricing: Pricing::Devex,
            verify: true,
            ..SolveOptions::default()
        };
        assert_close(beale.solve_with(&opts).unwrap().objective(), -0.05);
    }

    #[test]
    fn auto_pricing_switches_to_devex_at_the_column_threshold() {
        // Standard form has `n + m` columns (structural + one slack per
        // row). One column below the threshold Auto prices by Dantzig
        // sweeps; at the threshold, by devex. Moving the switch moves
        // which tied vertex the paper LPs land on, so it is pinned here.
        let m = 20;
        let solve_auto = |cols: usize| {
            let mut p = Problem::new(Sense::Maximize);
            let n = cols - m;
            let vars: Vec<_> = (0..n)
                .map(|j| p.add_var(1.0 + ((j * 7) % 13) as f64, 0.0, 1.0))
                .collect();
            for i in 0..m {
                let terms: Vec<_> = vars.iter().skip(i).step_by(m).map(|&v| (v, 1.0)).collect();
                p.add_constraint(terms, Relation::Le, 5.0);
            }
            let opts = SolveOptions {
                trace: true,
                ..SolveOptions::default()
            };
            let s = p.solve_with(&opts).unwrap();
            assert_eq!(s.trace().dropped, 0);
            let primal: Vec<TracePricing> = s
                .trace()
                .records
                .iter()
                .map(|r| r.pricing)
                .filter(|&pr| pr != TracePricing::Bland && pr != TracePricing::Dual)
                .collect();
            assert!(!primal.is_empty(), "expected primal pricing steps");
            primal
        };
        let below = solve_auto(AUTO_DEVEX_MIN_COLS - 1);
        assert!(
            below.iter().all(|&pr| pr == TracePricing::Dantzig),
            "{below:?}"
        );
        let at = solve_auto(AUTO_DEVEX_MIN_COLS);
        assert!(at.iter().all(|&pr| pr == TracePricing::Devex), "{at:?}");
    }

    /// A dense-ish random vector with exact zeros, negative zeros and
    /// negative entries spread over six decades, so any change in
    /// summation order shows up in the low bits.
    fn kernel_vector(rng: &mut rand_chacha::ChaCha8Rng, len: usize) -> Vec<f64> {
        use rand::Rng;
        (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0..=3 => 0.0,
                4 => -0.0,
                _ => rng.gen_range(-4.0..4.0) * 10f64.powi(rng.gen_range(-3..3)),
            })
            .collect()
    }

    /// Asserts the row-wise products in `s.dj`/`s.alpha` equal the
    /// per-column dots `cⱼ − aⱼ·y` and `aⱼ·ρ` bit for bit.
    fn assert_kernel_bits(s: &Simplex, rho: &[f64]) {
        for j in 0..s.a.ncols() {
            let d = s.cost[j] - s.a.dot_col(j, &s.y);
            assert_eq!(s.dj[j].to_bits(), d.to_bits(), "d[{j}]");
            let alpha = s.a.dot_col(j, rho);
            assert_eq!(s.alpha[j].to_bits(), alpha.to_bits(), "alpha[{j}]");
        }
    }

    /// A random sparse LP with `m` mixed-relation rows over `n` boxed
    /// variables; coefficients span four decades and both signs.
    fn random_sparse_lp(rng: &mut rand_chacha::ChaCha8Rng, m: usize, n: usize) -> Problem {
        use rand::Rng;
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|_| p.add_var(rng.gen_range(-5.0..5.0), 0.0, 10.0))
            .collect();
        for _ in 0..m {
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.2) {
                    let scale = 10f64.powi(rng.gen_range(-2..2));
                    terms.push((v, rng.gen_range(-3.0..3.0) * scale));
                }
            }
            let rel = [Relation::Le, Relation::Ge, Relation::Eq][rng.gen_range(0..3)];
            p.add_constraint(terms, rel, rng.gen_range(-10.0..10.0));
        }
        p
    }

    #[test]
    fn row_wise_pricing_kernel_is_bit_identical_to_column_dots() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
        let mut with_artificials = 0;
        for _ in 0..40 {
            let (m, n) = (rng.gen_range(1..40), rng.gen_range(1..60));
            let p = random_sparse_lp(&mut rng, m, n);

            // Random duals and pivot-row vectors over a standard form
            // with artificial columns appended as phase 1 does.
            let mut s = Simplex::new(&p, &SolveOptions::default());
            for i in 0..m {
                if rng.gen_bool(0.3) {
                    s.a.push_unit_col(i, if rng.gen_bool(0.5) { 1.0 } else { -1.0 });
                    s.cost.push(1.0);
                }
            }
            s.build_row_copy();
            s.y = kernel_vector(&mut rng, m);
            s.compute_reduced_costs();
            let rho = kernel_vector(&mut rng, m);
            s.a_rows.scatter_mul(&rho, &mut s.alpha);
            assert_kernel_bits(&s, &rho);

            // The solver's own duals and `B⁻¹` rows at its final basis,
            // phase-1 artificials included when the start needed them.
            let mut s = Simplex::new(&p, &SolveOptions::default());
            let _ = s.run();
            if s.a.ncols() > n + m {
                with_artificials += 1;
            }
            s.compute_duals();
            s.compute_reduced_costs();
            for r in 0..m {
                s.compute_pivot_row(r);
                let rho = s.rho.clone();
                assert_kernel_bits(&s, &rho);
            }
        }
        assert!(with_artificials > 0, "no solve exercised phase 1");
    }

    /// The per-column entering test as a nested-branch reference:
    /// `Some((dir, score))` when moving `j` by `dir` improves the
    /// objective at rate `score`.
    fn reference_candidate(s: &Simplex, j: usize, tol: f64) -> Option<(f64, f64)> {
        let fixed = s.lower[j] >= s.upper[j];
        let d = s.dj[j];
        match s.state[j] {
            VarState::Basic(_) => None,
            VarState::AtLower if fixed => None,
            VarState::AtUpper if fixed => None,
            VarState::AtLower => (d < -tol).then_some((1.0, -d)),
            VarState::AtUpper => (d > tol).then_some((-1.0, d)),
            VarState::FreeZero if d < -tol => Some((1.0, -d)),
            VarState::FreeZero => (d > tol).then_some((-1.0, d)),
        }
    }

    fn entering(step: PriceStep) -> Option<(usize, f64)> {
        match step {
            PriceStep::Optimal => None,
            PriceStep::Enter { col, dir } => Some((col, dir)),
        }
    }

    #[test]
    fn pricing_rules_match_the_reference_entering_test() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xd1ce);
        let p = random_sparse_lp(&mut rng, 12, 30);
        let mut s = Simplex::new(&p, &SolveOptions::default());
        let tol = s.opts.tol;
        let ncols = s.a.ncols();
        s.build_row_copy();
        s.state = vec![VarState::AtLower; ncols];
        s.devex_w = vec![1.0; ncols];
        // Few distinct values, so ties and the ±tol edges come up often.
        let magnitudes = [0.0, tol, 2.0 * tol, 0.5, 1.0];
        for _ in 0..500 {
            for j in 0..ncols {
                s.state[j] = match rng.gen_range(0..4) {
                    0 => VarState::Basic(0),
                    1 => VarState::AtLower,
                    2 => VarState::AtUpper,
                    _ => VarState::FreeZero,
                };
                (s.lower[j], s.upper[j]) = match s.state[j] {
                    VarState::FreeZero => (f64::NEG_INFINITY, f64::INFINITY),
                    _ if rng.gen_bool(0.2) => (3.0, 3.0),
                    _ => (0.0, 10.0),
                };
                let d = magnitudes[rng.gen_range(0..magnitudes.len())];
                s.dj[j] = if rng.gen_bool(0.5) { -d } else { d };
                s.devex_w[j] = [1.0, 4.0][rng.gen_range(0..2)];
            }
            let candidates: Vec<(usize, f64, f64)> = (0..ncols)
                .filter_map(|j| reference_candidate(&s, j, tol).map(|(dir, sc)| (j, dir, sc)))
                .collect();
            // Bland: lowest improving index. Dantzig: largest score,
            // earliest on ties. Devex: largest score²/γ, earliest on ties.
            let bland = candidates.first().map(|&(j, dir, _)| (j, dir));
            let mut dantzig: Option<(usize, f64, f64)> = None;
            let mut devex: Option<(usize, f64, f64)> = None;
            for &(j, dir, score) in &candidates {
                if dantzig.is_none_or(|(_, _, best)| score > best) {
                    dantzig = Some((j, dir, score));
                }
                let merit = score * score / s.devex_w[j];
                if devex.is_none_or(|(_, _, best)| merit > best) {
                    devex = Some((j, dir, merit));
                }
            }
            let bland_step = (0..ncols).find_map(|j| {
                let (dir, score) = s.price_score(j);
                (score > tol).then_some((j, dir))
            });
            assert_eq!(bland_step, bland);
            assert_eq!(
                entering(s.price_dantzig(tol)),
                dantzig.map(|(j, d, _)| (j, d))
            );
            assert_eq!(entering(s.price_devex(tol)), devex.map(|(j, d, _)| (j, d)));
        }
    }

    #[test]
    fn engine_combination_agrees_across_warm_start_chain() {
        // Devex pricing through the branch-and-bound-style
        // tighten/re-solve pattern: the one warm-start chain run under
        // devex.
        let build = || {
            let mut p = Problem::new(Sense::Minimize);
            let vars: Vec<_> = (0..6)
                .map(|i| p.add_var(1.0 + i as f64 * 0.5, 0.0, 10.0))
                .collect();
            for i in 0..6 {
                let j = (i + 1) % 6;
                p.add_constraint([(vars[i], 1.0), (vars[j], 1.0)], Relation::Ge, 4.0);
            }
            (p, vars)
        };
        let (mut p, vars) = build();
        let opts = SolveOptions {
            pricing: Pricing::Devex,
            verify: true,
            ..SolveOptions::default()
        };
        let (_, mut basis) = p.solve_with_basis(&opts, None).unwrap();
        for step in 0..4 {
            let v = vars[step % vars.len()];
            let (lo, up) = p.bounds(v);
            p.set_bounds(v, (lo + 1.0).min(up), up);
            let (warm, b) = p.solve_with_basis(&opts, Some(&basis)).unwrap();
            basis = b;
            let cold = p.solve().unwrap();
            assert_close(warm.objective(), cold.objective());
        }
    }
}
