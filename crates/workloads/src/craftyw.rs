//! `crafty` analogue: chess move generation and alpha-beta search.
//!
//! A real (simplified) chess engine: 0x88 board, full legal-ish move
//! generation for all piece types, material + mobility evaluation, and a
//! fixed-depth alpha-beta search with capture-first move ordering. Input
//! sets are different initial board layouts, as in the paper's crafty
//! experiments ("constructed by modifying the initial layout of the chess
//! board", §4.2) — search-tree branches (cutoffs, stand-pat, capture tests)
//! shift substantially between layouts.

use crate::rng::Xoshiro256;
use crate::{InputSet, Scale, Workload};
use btrace::{SiteDecl, Tracer};

declare_sites! {
    S_SQ_ON_BOARD => "square_on_board" (Guard),
    S_SQ_EMPTY => "square_empty" (Guard),
    S_OWN_PIECE => "square_own_piece" (Guard),
    S_IS_SLIDER => "piece_is_slider" (TypeCheck),
    S_RAY_CONT_BISHOP => "bishop_ray_continue" (Loop),
    S_RAY_CONT_ROOK => "rook_ray_continue" (Loop),
    S_RAY_CONT_QUEEN => "queen_ray_continue" (Loop),
    S_PAWN_CAPTURE => "pawn_capture_possible" (Guard),
    S_PAWN_DOUBLE => "pawn_double_push" (Guard),
    S_PROMOTION => "pawn_promotes" (Guard),
    S_MOVE_IS_CAPTURE => "move_is_capture" (IfElse),
    S_ORDER_CMP => "move_order_insertion_cmp" (Search),
    S_BETA_CUTOFF => "beta_cutoff" (Search),
    S_ALPHA_IMPROVE => "alpha_improves" (Search),
    S_DEPTH_ZERO => "search_depth_exhausted" (Guard),
    S_STAND_PAT => "eval_stand_pat" (Search),
    S_MOVE_LOOP => "move_list_loop" (Loop),
    S_KING_CAPTURED => "king_captured" (Guard),
    S_EVAL_AHEAD => "eval_side_ahead" (IfElse),
    S_EVAL_PAWN_ADVANCED => "eval_pawn_advanced" (Guard),
    S_EVAL_IN_CENTER => "eval_piece_in_center" (IfElse),
    S_EVAL_KING_GUARDED => "eval_king_has_cover" (Guard),
    S_IN_CHECK => "side_in_check" (Guard),
    S_ATTACK_RAY => "attack_ray_scan" (Loop),
    S_QSEARCH_STANDPAT => "qsearch_stand_pat_cutoff" (Search),
    S_QSEARCH_CAPTURE => "qsearch_move_is_capture" (Guard),
    S_GAME_LOOP => "self_play_loop" (Loop),
}

/// Piece codes; positive = white, negative = black.
pub const EMPTY: i8 = 0;
/// Pawn.
pub const PAWN: i8 = 1;
/// Knight.
pub const KNIGHT: i8 = 2;
/// Bishop.
pub const BISHOP: i8 = 3;
/// Rook.
pub const ROOK: i8 = 4;
/// Queen.
pub const QUEEN: i8 = 5;
/// King.
pub const KING: i8 = 6;

const PIECE_VALUE: [i32; 7] = [0, 100, 320, 330, 500, 900, 20_000];

/// A chess position on a 0x88 board (`board[rank * 16 + file]`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Board {
    squares: [i8; 128],
    /// side to move: +1 white, -1 black
    side: i8,
}

/// A move from one 0x88 square to another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    from: u8,
    to: u8,
    captured: i8,
}

const KNIGHT_DELTAS: [i16; 8] = [31, 33, 14, 18, -31, -33, -14, -18];
const KING_DELTAS: [i16; 8] = [1, -1, 16, -16, 15, 17, -15, -17];
const BISHOP_DELTAS: [i16; 4] = [15, 17, -15, -17];
const ROOK_DELTAS: [i16; 4] = [1, -1, 16, -16];

impl Board {
    /// The standard chess starting position.
    pub fn initial() -> Self {
        let mut squares = [EMPTY; 128];
        let back = [ROOK, KNIGHT, BISHOP, QUEEN, KING, BISHOP, KNIGHT, ROOK];
        for (f, &p) in back.iter().enumerate() {
            squares[f] = p;
            squares[16 + f] = PAWN;
            squares[96 + f] = -PAWN;
            squares[112 + f] = -p;
        }
        Self { squares, side: 1 }
    }

    /// An endgame-like layout: kings plus `extra` random pieces scattered
    /// over the board. Sparse boards shift the occupancy/ray/capture branch
    /// mix drastically relative to the opening.
    pub fn endgame(extra: u32, rng: &mut Xoshiro256) -> Self {
        let mut squares = [EMPTY; 128];
        squares[4] = KING;
        squares[112 + 4] = -KING;
        let mut placed = 0;
        while placed < extra {
            let sq = (rng.below(8) * 16 + rng.below(8)) as usize;
            if squares[sq] != EMPTY {
                continue;
            }
            let kind = *rng.pick(&[PAWN, PAWN, PAWN, KNIGHT, BISHOP, ROOK, QUEEN]);
            let side = if placed % 2 == 0 { 1 } else { -1 };
            squares[sq] = kind * side;
            placed += 1;
        }
        Self { squares, side: 1 }
    }

    /// A modified layout: the standard position with `mutations` random
    /// piece removals/relocations (the paper's "modified ref input" crafty
    /// inputs). Kings are never touched.
    pub fn modified(mutations: u32, rng: &mut Xoshiro256) -> Self {
        let mut b = Self::initial();
        let mut done = 0;
        while done < mutations {
            let sq = (rng.below(8) * 16 + rng.below(8)) as usize;
            let p = b.squares[sq];
            if p == EMPTY || p.abs() == KING {
                continue;
            }
            if rng.chance(40) {
                b.squares[sq] = EMPTY; // remove
            } else {
                let dst = (rng.below(8) * 16 + rng.below(8)) as usize;
                if b.squares[dst] == EMPTY {
                    b.squares[dst] = p;
                    b.squares[sq] = EMPTY;
                }
            }
            done += 1;
        }
        b
    }

    #[inline]
    fn on_board(sq: i16) -> bool {
        (0..128).contains(&sq) && (sq & 0x88) == 0
    }

    /// Generates pseudo-legal moves for the side to move.
    pub fn generate_moves(&self, t: &mut dyn Tracer, out: &mut Vec<Move>) {
        out.clear();
        let side = self.side;
        for rank in 0..8 {
            for file in 0..8 {
                let from = rank * 16 + file;
                let p = self.squares[from];
                if br!(t, S_SQ_EMPTY, p == EMPTY) {
                    continue;
                }
                if !br!(t, S_OWN_PIECE, p.signum() == side) {
                    continue;
                }
                let kind = p.abs();
                if br!(t, S_IS_SLIDER, matches!(kind, BISHOP | ROOK | QUEEN)) {
                    // each slider kind is a distinct static branch in the
                    // original source, so each gets its own ray-loop site
                    let (deltas, ray_site): (&[i16], _) = match kind {
                        BISHOP => (&BISHOP_DELTAS, S_RAY_CONT_BISHOP),
                        ROOK => (&ROOK_DELTAS, S_RAY_CONT_ROOK),
                        _ => (&KING_DELTAS, S_RAY_CONT_QUEEN), // queen: all 8
                    };
                    for &d in deltas {
                        let mut to = from as i16 + d;
                        loop {
                            if !br!(t, S_SQ_ON_BOARD, Self::on_board(to)) {
                                break;
                            }
                            let target = self.squares[to as usize];
                            if target == EMPTY {
                                out.push(Move {
                                    from: from as u8,
                                    to: to as u8,
                                    captured: EMPTY,
                                });
                            } else {
                                if target.signum() != side {
                                    out.push(Move {
                                        from: from as u8,
                                        to: to as u8,
                                        captured: target,
                                    });
                                }
                                br!(t, ray_site, false);
                                break;
                            }
                            br!(t, ray_site, true);
                            to += d;
                        }
                    }
                } else if kind == KNIGHT || kind == KING {
                    let deltas: &[i16] = if kind == KNIGHT {
                        &KNIGHT_DELTAS
                    } else {
                        &KING_DELTAS
                    };
                    for &d in deltas {
                        let to = from as i16 + d;
                        if !br!(t, S_SQ_ON_BOARD, Self::on_board(to)) {
                            continue;
                        }
                        let target = self.squares[to as usize];
                        if target == EMPTY || target.signum() != side {
                            out.push(Move {
                                from: from as u8,
                                to: to as u8,
                                captured: target,
                            });
                        }
                    }
                } else {
                    // pawn
                    let fwd = 16 * side as i16;
                    let one = from as i16 + fwd;
                    if Self::on_board(one) && self.squares[one as usize] == EMPTY {
                        br!(
                            t,
                            S_PROMOTION,
                            one as usize / 16 == 7 || one as usize / 16 == 0
                        );
                        out.push(Move {
                            from: from as u8,
                            to: one as u8,
                            captured: EMPTY,
                        });
                        let start_rank = if side > 0 { 1 } else { 6 };
                        let two = one + fwd;
                        if br!(
                            t,
                            S_PAWN_DOUBLE,
                            rank as i16 == start_rank
                                && Self::on_board(two)
                                && self.squares[two as usize] == EMPTY
                        ) {
                            out.push(Move {
                                from: from as u8,
                                to: two as u8,
                                captured: EMPTY,
                            });
                        }
                    }
                    for d in [fwd - 1, fwd + 1] {
                        let to = from as i16 + d;
                        let capturable = Self::on_board(to)
                            && self.squares[to as usize] != EMPTY
                            && self.squares[to as usize].signum() != side;
                        if br!(t, S_PAWN_CAPTURE, capturable) {
                            out.push(Move {
                                from: from as u8,
                                to: to as u8,
                                captured: self.squares[to as usize],
                            });
                        }
                    }
                }
            }
        }
    }

    fn make(&mut self, m: Move) {
        let mut p = self.squares[m.from as usize];
        // auto-queen promotion
        let to_rank = m.to / 16;
        if p.abs() == PAWN && (to_rank == 7 || to_rank == 0) {
            p = QUEEN * p.signum();
        }
        self.squares[m.to as usize] = p;
        self.squares[m.from as usize] = EMPTY;
        self.side = -self.side;
    }

    fn unmake(&mut self, m: Move, was: i8) {
        self.squares[m.from as usize] = was;
        self.squares[m.to as usize] = m.captured;
        self.side = -self.side;
    }

    /// The side's king square, if present (kings can be captured in this
    /// pseudo-legal engine).
    pub fn king_square(&self, side: i8) -> Option<usize> {
        (0..8)
            .flat_map(|r| (0..8).map(move |f| r * 16 + f))
            .find(|&sq| self.squares[sq] == KING * side)
    }

    /// Whether `sq` is attacked by any piece of `by` — knight/king/pawn
    /// probes plus blocker-terminated sliding rays, as in crafty's
    /// `Attacked()`.
    pub fn is_attacked(&self, sq: usize, by: i8, t: &mut dyn Tracer) -> bool {
        for &d in &KNIGHT_DELTAS {
            let from = sq as i16 + d;
            if Self::on_board(from) && self.squares[from as usize] == KNIGHT * by {
                return true;
            }
        }
        for &d in &KING_DELTAS {
            let from = sq as i16 + d;
            if Self::on_board(from) && self.squares[from as usize] == KING * by {
                return true;
            }
        }
        // pawns attack diagonally toward their movement direction
        let pawn_back = -16 * by as i16;
        for d in [pawn_back - 1, pawn_back + 1] {
            let from = sq as i16 + d;
            if Self::on_board(from) && self.squares[from as usize] == PAWN * by {
                return true;
            }
        }
        // sliding rays: diagonal (bishop/queen) and straight (rook/queen)
        for (deltas, kinds) in [
            (&BISHOP_DELTAS, [BISHOP, QUEEN]),
            (&ROOK_DELTAS, [ROOK, QUEEN]),
        ] {
            for &d in deltas {
                let mut from = sq as i16 + d;
                loop {
                    if !Self::on_board(from) {
                        break;
                    }
                    let p = self.squares[from as usize];
                    if !br!(t, S_ATTACK_RAY, p == EMPTY) {
                        if p.signum() == by && kinds.contains(&p.abs()) {
                            return true;
                        }
                        break;
                    }
                    from += d;
                }
            }
        }
        false
    }

    /// Whether `side`'s king is attacked.
    pub fn in_check(&self, side: i8, t: &mut dyn Tracer) -> bool {
        match self.king_square(side) {
            Some(sq) => self.is_attacked(sq, -side, t),
            None => false,
        }
    }

    /// Material + positional evaluation from the side-to-move's
    /// perspective. The positional terms (pawn advancement, centralization,
    /// king cover) are the phase-sensitive branches real evaluation
    /// functions are full of: their outcome mix differs sharply between
    /// opening and endgame positions.
    pub fn evaluate(&self, t: &mut dyn Tracer) -> i32 {
        let mut score = 0i32;
        for rank in 0..8 {
            for file in 0..8 {
                let p = self.squares[rank * 16 + file];
                if p == EMPTY {
                    continue;
                }
                let sign = p.signum() as i32;
                score += PIECE_VALUE[p.unsigned_abs() as usize] * sign;
                match p.abs() {
                    PAWN => {
                        let advanced = if p > 0 { rank >= 4 } else { rank <= 3 };
                        if br!(t, S_EVAL_PAWN_ADVANCED, advanced) {
                            score += 12 * sign;
                        }
                    }
                    KING => {
                        // cover: any friendly piece on the three squares in
                        // front of the king
                        let fwd = if p > 0 { 1i32 } else { -1 };
                        let r2 = rank as i32 + fwd;
                        let mut covered = false;
                        if (0..8).contains(&r2) {
                            for df in -1i32..=1 {
                                let f2 = file as i32 + df;
                                if (0..8).contains(&f2)
                                    && self.squares[(r2 * 16 + f2) as usize].signum() == p.signum()
                                {
                                    covered = true;
                                }
                            }
                        }
                        if br!(t, S_EVAL_KING_GUARDED, covered) {
                            score += 20 * sign;
                        }
                    }
                    _ => {
                        let central = (2..6).contains(&rank) && (2..6).contains(&file);
                        if br!(t, S_EVAL_IN_CENTER, central) {
                            score += 8 * sign;
                        }
                    }
                }
            }
        }
        score * self.side as i32
    }
}

/// Capture-only quiescence search with stand-pat, as real engines run at
/// the horizon to avoid evaluating mid-exchange positions.
fn quiesce(
    board: &mut Board,
    mut alpha: i32,
    beta: i32,
    qdepth: u32,
    t: &mut dyn Tracer,
    nodes: &mut u64,
) -> i32 {
    *nodes += 1;
    let stand_pat = board.evaluate(t);
    br!(t, S_EVAL_AHEAD, stand_pat > 0);
    if br!(t, S_QSEARCH_STANDPAT, stand_pat >= beta) || qdepth == 0 {
        return stand_pat;
    }
    if stand_pat > alpha {
        alpha = stand_pat;
    }
    let mut moves = Vec::with_capacity(48);
    board.generate_moves(t, &mut moves);
    for m in moves {
        if !br!(t, S_QSEARCH_CAPTURE, m.captured != EMPTY) {
            continue;
        }
        if m.captured.abs() == KING {
            return 900_000;
        }
        let was = board.squares[m.from as usize];
        board.make(m);
        let score = -quiesce(board, -beta, -alpha, qdepth - 1, t, nodes);
        board.unmake(m, was);
        if score > alpha {
            alpha = score;
        }
        if alpha >= beta {
            break;
        }
    }
    alpha
}

/// Alpha-beta search; returns `(score, best move)`.
pub fn search(
    board: &mut Board,
    depth: u32,
    mut alpha: i32,
    beta: i32,
    t: &mut dyn Tracer,
    nodes: &mut u64,
) -> (i32, Option<Move>) {
    *nodes += 1;
    if br!(t, S_DEPTH_ZERO, depth == 0) {
        let score = quiesce(board, alpha, beta, 2, t, nodes);
        br!(t, S_STAND_PAT, score >= beta);
        return (score, None);
    }
    br!(t, S_IN_CHECK, board.in_check(board.side, t));
    let mut moves = Vec::with_capacity(48);
    board.generate_moves(t, &mut moves);
    // capture-first ordering via insertion sort, as real engines do — its
    // comparison branch is hot and data-dependent
    for i in 1..moves.len() {
        let m = moves[i];
        let key = PIECE_VALUE[m.captured.unsigned_abs() as usize];
        let mut j = i;
        while br!(
            t,
            S_ORDER_CMP,
            j > 0 && PIECE_VALUE[moves[j - 1].captured.unsigned_abs() as usize] < key
        ) {
            moves[j] = moves[j - 1];
            j -= 1;
        }
        moves[j] = m;
    }
    let mut best = None;
    let mut best_score = -1_000_000;
    let mut i = 0usize;
    while br!(t, S_MOVE_LOOP, i < moves.len()) {
        let m = moves[i];
        i += 1;
        br!(t, S_MOVE_IS_CAPTURE, m.captured != EMPTY);
        if br!(t, S_KING_CAPTURED, m.captured.abs() == KING) {
            return (900_000 + depth as i32, Some(m));
        }
        let was = board.squares[m.from as usize];
        board.make(m);
        let (s, _) = search(board, depth - 1, -beta, -alpha, t, nodes);
        let score = -s;
        board.unmake(m, was);
        if score > best_score {
            best_score = score;
            best = Some(m);
        }
        if br!(t, S_ALPHA_IMPROVE, score > alpha) {
            alpha = score;
        }
        if br!(t, S_BETA_CUTOFF, alpha >= beta) {
            break;
        }
    }
    if best.is_none() {
        // stalemate/no moves: evaluate statically
        return (board.evaluate(t), None);
    }
    (best_score, best)
}

/// The crafty-analogue workload.
#[derive(Clone, Copy, Debug)]
pub struct CraftyWorkload {
    scale: Scale,
}

impl CraftyWorkload {
    /// Creates the workload at the given scale.
    pub fn new(scale: Scale) -> Self {
        Self { scale }
    }
}

impl Workload for CraftyWorkload {
    fn name(&self) -> &'static str {
        "crafty"
    }

    fn description(&self) -> &'static str {
        "chess move generation + alpha-beta search (self-play)"
    }

    fn sites(&self) -> &'static [SiteDecl] {
        SITES
    }

    fn input_sets(&self) -> Vec<InputSet> {
        // size = total plies of self-play (12 per game); level = search
        // depth; variant = position flavour: 0 standard, 1..=30 mutation
        // count, 99 mixed opening/middlegame/endgame, 100+k endgame with k
        // extra pieces
        let table: [(&'static str, &'static str, u64, u64, i64, u32); 8] = [
            ("train", "standard opening games", 501, 36, 3, 0),
            (
                "ref",
                "position file mixing all game phases",
                502,
                430,
                3,
                99,
            ),
            (
                "ext-1",
                "modified ref input (light mutation)",
                503,
                48,
                3,
                3,
            ),
            ("ext-2", "endgame positions (12 pieces)", 504, 48, 3, 110),
            (
                "ext-3",
                "modified ref input (heavy mutation)",
                505,
                48,
                3,
                12,
            ),
            ("ext-4", "endgame positions (6 pieces)", 506, 60, 3, 104),
            ("ext-5", "modified train (few mutations)", 507, 40, 3, 6),
            ("ext-6", "modified ref input (mid mutation)", 508, 48, 3, 9),
        ];
        table
            .iter()
            .map(
                |&(name, description, seed, size, level, variant)| InputSet {
                    name,
                    description,
                    seed,
                    size: self.scale.apply(size),
                    level,
                    variant,
                },
            )
            .collect()
    }

    fn run(&self, input: &InputSet, t: &mut dyn Tracer) {
        // A run is a series of games of 12 plies each, like crafty working
        // through a test-position file: the first game starts from the
        // standard (or lightly mutated) layout; later games start from
        // increasingly mutated layouts drawn from the input's seed.
        const PLIES_PER_GAME: u64 = 12;
        let mut rng = Xoshiro256::seed_from_u64(input.seed);
        let games = input.size.div_ceil(PLIES_PER_GAME).max(1);
        let mut nodes = 0u64;
        for game in 0..games {
            let mut board = match input.variant {
                0 if game == 0 => Board::initial(),
                0 => Board::modified(1 + game as u32 % 3, &mut rng),
                v @ 1..=30 => Board::modified(v + game as u32 % 5, &mut rng),
                // the "position file" input leans heavily on endgame
                // positions, as tactical test suites do — openings are the
                // *train* input's territory
                99 => match game % 4 {
                    3 => Board::modified(14 + game as u32 % 6, &mut rng),
                    _ => Board::endgame(5 + (game as u32 % 7) * 2, &mut rng),
                },
                v => Board::endgame((v - 100).max(2) + game as u32 % 4, &mut rng),
            };
            let mut ply = 0u64;
            while br!(t, S_GAME_LOOP, ply < PLIES_PER_GAME) {
                ply += 1;
                let (score, best) = search(
                    &mut board,
                    input.level as u32,
                    -1_000_000,
                    1_000_000,
                    t,
                    &mut nodes,
                );
                match best {
                    Some(m) if score.abs() < 800_000 => board.make(m),
                    _ => break, // game over (king capture found or no moves)
                }
            }
        }
        std::hint::black_box(nodes);
    }

    fn instructions_per_branch(&self) -> f64 {
        6.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace::NullTracer;

    #[test]
    fn initial_position_has_twenty_moves() {
        let b = Board::initial();
        let mut moves = Vec::new();
        b.generate_moves(&mut NullTracer, &mut moves);
        assert_eq!(moves.len(), 20, "16 pawn moves + 4 knight moves");
    }

    #[test]
    fn initial_material_is_balanced() {
        assert_eq!(
            Board::initial().evaluate(&mut NullTracer),
            0,
            "symmetric position: material and positional terms cancel"
        );
    }

    #[test]
    fn capture_is_recorded_and_reversible() {
        let mut b = Board::initial();
        // put a black pawn where the white queen can take it
        b.squares[3 + 16 * 2] = -PAWN; // d3
        let mut moves = Vec::new();
        b.generate_moves(&mut NullTracer, &mut moves);
        let cap = moves
            .iter()
            .find(|m| m.captured == -PAWN)
            .copied()
            .expect("a capture of the d3 pawn exists");
        let before = b.clone();
        let was = b.squares[cap.from as usize];
        b.make(cap);
        assert_eq!(b.side, -1);
        b.unmake(cap, was);
        assert_eq!(b, before, "make/unmake must round-trip");
    }

    #[test]
    fn search_prefers_material_win() {
        // White queen can capture an undefended black rook.
        let mut b = Board::initial();
        b.squares[16 * 4 + 3] = -ROOK; // black rook on d5
        b.squares[16 * 3 + 3] = QUEEN; // white queen on d4
        let mut nodes = 0;
        let (_score, best) = search(
            &mut b,
            2,
            -1_000_000,
            1_000_000,
            &mut NullTracer,
            &mut nodes,
        );
        let m = best.unwrap();
        assert_eq!(m.captured, -ROOK, "queen should grab the rook: {m:?}");
    }

    #[test]
    fn deeper_search_visits_more_nodes() {
        let mut nodes2 = 0;
        let mut nodes4 = 0;
        let mut b = Board::initial();
        search(
            &mut b,
            2,
            -1_000_000,
            1_000_000,
            &mut NullTracer,
            &mut nodes2,
        );
        let mut b = Board::initial();
        search(
            &mut b,
            4,
            -1_000_000,
            1_000_000,
            &mut NullTracer,
            &mut nodes4,
        );
        assert!(nodes4 > nodes2 * 10, "{nodes2} vs {nodes4}");
    }

    #[test]
    fn modified_boards_differ_and_keep_kings() {
        let mut rng = Xoshiro256::seed_from_u64(42);
        let m = Board::modified(10, &mut rng);
        assert_ne!(m, Board::initial());
        let kings: i32 = (0..8)
            .flat_map(|r| (0..8).map(move |f| (r, f)))
            .map(|(r, f)| (m.squares[r * 16 + f].abs() == KING) as i32)
            .sum();
        assert_eq!(kings, 2);
    }

    #[test]
    fn on_board_rejects_0x88_offboard() {
        assert!(Board::on_board(0));
        assert!(Board::on_board(0x77));
        assert!(!Board::on_board(0x08));
        assert!(!Board::on_board(-1));
        assert!(!Board::on_board(128));
    }

    #[test]
    fn check_detection_works() {
        let t = &mut NullTracer;
        let mut b = Board::initial();
        assert!(!b.in_check(1, t), "starting position is quiet");
        assert!(!b.in_check(-1, t));
        // plant a black rook on the white king's file with a clear path
        b.squares[16 + 4] = EMPTY; // remove e2 pawn
        b.squares[16 * 4 + 4] = -ROOK; // black rook e5
        assert!(b.in_check(1, t), "rook attacks the king down the file");
        assert!(!b.in_check(-1, t));
        // interpose a piece: no longer check
        b.squares[16 * 2 + 4] = KNIGHT;
        assert!(!b.in_check(1, t), "blocker cancels the ray");
    }

    #[test]
    fn knight_and_pawn_checks() {
        let t = &mut NullTracer;
        let mut b = Board::initial();
        b.squares[16 * 2 + 3] = -KNIGHT; // d3 knight forks e1
        assert!(b.in_check(1, t), "knight check");
        b.squares[16 * 2 + 3] = EMPTY;
        b.squares[16 + 3] = -PAWN; // black pawn d2 attacks e1
        assert!(b.in_check(1, t), "pawn check");
    }

    #[test]
    fn quiescence_resolves_hanging_exchanges() {
        // a queen en prise: the horizon eval would count it as material,
        // quiescence must see it is immediately lost
        let t = &mut NullTracer;
        let mut b = Board {
            squares: [EMPTY; 128],
            side: -1, // black to move
        };
        b.squares[4] = KING; // white king e1
        b.squares[112 + 4] = -KING; // black king e8
        b.squares[16 * 3 + 3] = QUEEN; // white queen d4
        b.squares[16 * 5 + 5] = -BISHOP; // black bishop f6 attacks d4
        let mut nodes = 0;
        let static_eval = b.evaluate(t);
        let q = quiesce(&mut b, -1_000_000, 1_000_000, 3, t, &mut nodes);
        // statically black is down queen-vs-bishop (~ -570); after the
        // quiescence capture only black's bishop remains (~ +330)
        assert!(static_eval < -400, "static {static_eval}");
        assert!(q > 200, "quiescence should take the queen: {q}");
        assert!(
            q > static_eval + 700,
            "the capture must swing the score: {static_eval} -> {q}"
        );
    }

    #[test]
    fn self_play_terminates_and_is_deterministic() {
        let w = CraftyWorkload::new(Scale::Tiny);
        let input = w.input_set("train").unwrap();
        let mut a = btrace::RecordedTrace::new(SITES.len());
        w.run(&input, &mut a);
        let mut b = btrace::RecordedTrace::new(SITES.len());
        w.run(&input, &mut b);
        assert_eq!(a, b);
    }
}
