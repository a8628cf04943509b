//! Stream shaping: turning a static ontology into an arriving triple flow.
//!
//! The paper positions Slider as a reasoner for "dynamic triple streams"
//! processed "as soon as \[data\] is published". These helpers chop a
//! dataset into arrival batches for the streaming benchmarks and the
//! `streaming_sensor` example:
//!
//! * [`TimedStream`] — batches paired with inter-arrival gaps, either
//!   [`uniform`](TimedStream::uniform) or [`bursty`](TimedStream::bursty)
//!   (geometric gaps: back-to-back bursts with occasional long pauses);
//! * [`SlidingWindow`] — a count-based window that pairs each arrival
//!   batch with the batch expiring out of the window, feeding the
//!   retraction path (`Slider::remove_terms`) instead of a rebuild;
//! * [`TimedWindow`] — a **time-based** window over a [`TimedStream`]:
//!   every batch is stamped with its virtual arrival time (the cumulative
//!   inter-arrival gaps) and expires by *timestamp*, not batch count, so a
//!   bursty schedule expires several batches at once after a long pause —
//!   the high-churn shape the coalesced maintenance scheduler
//!   (`Op::Defer`) amortises.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slider_model::TermTriple;
use std::time::Duration;

/// Splits `triples` into `batch_size`-sized arrival batches (last batch may
/// be short).
pub fn batches(triples: &[TermTriple], batch_size: usize) -> Vec<Vec<TermTriple>> {
    assert!(batch_size >= 1, "batch size must be at least 1");
    triples
        .chunks(batch_size)
        .map(<[TermTriple]>::to_vec)
        .collect()
}

/// An arrival schedule: batches paired with inter-arrival gaps.
#[derive(Debug, Clone)]
pub struct TimedStream {
    items: Vec<(Duration, Vec<TermTriple>)>,
}

impl TimedStream {
    /// A uniform schedule: every `gap`, one `batch_size` batch.
    pub fn uniform(triples: &[TermTriple], batch_size: usize, gap: Duration) -> Self {
        TimedStream {
            items: batches(triples, batch_size)
                .into_iter()
                .map(|b| (gap, b))
                .collect(),
        }
    }

    /// A bursty schedule with geometric inter-arrival gaps (see
    /// [`bursty_gaps`]): most batches arrive back-to-back (`k = 0` ticks)
    /// with occasional long quiet stretches — the classic bursty-traffic
    /// shape the uniform schedule can't exercise. Deterministic per
    /// `seed`.
    ///
    /// Panics unless `0.0 <= continue_prob < 1.0`.
    pub fn bursty(
        triples: &[TermTriple],
        batch_size: usize,
        tick: Duration,
        continue_prob: f64,
        seed: u64,
    ) -> Self {
        let batches = batches(triples, batch_size);
        let gaps = bursty_gaps(batches.len(), tick, continue_prob, seed);
        TimedStream {
            items: gaps.into_iter().zip(batches).collect(),
        }
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the stream has no batches.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates `(gap_before_batch, batch)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(Duration, Vec<TermTriple>)> {
        self.items.iter()
    }

    /// Plays the stream: sleeps each gap, then hands the batch to `deliver`.
    pub fn play(&self, mut deliver: impl FnMut(&[TermTriple])) {
        for (gap, batch) in &self.items {
            if !gap.is_zero() {
                std::thread::sleep(*gap);
            }
            deliver(batch);
        }
    }
}

/// One step of a [`SlidingWindow`]: what arrives and what expires.
#[derive(Debug, Clone, Copy)]
pub struct WindowStep<'a> {
    /// Zero-based step index (= index of the arriving batch).
    pub index: usize,
    /// The batch entering the window.
    pub arrival: &'a [TermTriple],
    /// The batch leaving the window (`None` until the window is full).
    pub expiring: Option<&'a [TermTriple]>,
}

/// A count-based sliding window over arrival batches.
///
/// Step `i` delivers batch `i` and — once the window holds `window`
/// batches — expires batch `i − window`. Streaming consumers feed the
/// arrival to `Slider::add_terms` and the expiring batch to
/// `Slider::remove_terms`, keeping the materialisation equal to the
/// closure of exactly the last `window` batches *without* any rebuild
/// (the DRed maintenance path). `examples/streaming_sensor.rs` and the
/// `retraction` bench both drive this shape.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    batches: Vec<Vec<TermTriple>>,
    window: usize,
    gap: Duration,
}

impl SlidingWindow {
    /// Chops `triples` into `batch_size` batches sliding over a window of
    /// `window` batches, with `gap` between arrivals.
    ///
    /// Panics if `window` is 0 (an empty window expires every arrival
    /// immediately — use a plain [`TimedStream`] if you don't want state).
    pub fn new(triples: &[TermTriple], batch_size: usize, window: usize, gap: Duration) -> Self {
        assert!(window >= 1, "window must hold at least 1 batch");
        SlidingWindow {
            batches: batches(triples, batch_size),
            window,
            gap,
        }
    }

    /// Number of steps (= number of arrival batches).
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True if the stream has no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Window size, in batches.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Iterates the steps: each arrival paired with the batch (if any)
    /// that slides out of the window on that step.
    pub fn steps(&self) -> impl Iterator<Item = WindowStep<'_>> {
        self.batches
            .iter()
            .enumerate()
            .map(|(i, arrival)| WindowStep {
                index: i,
                arrival,
                expiring: i
                    .checked_sub(self.window)
                    .map(|j| self.batches[j].as_slice()),
            })
    }

    /// The batches still inside the window after the last arrival (at most
    /// `window` of them, in arrival order).
    pub fn tail(&self) -> &[Vec<TermTriple>] {
        let start = self.batches.len().saturating_sub(self.window);
        &self.batches[start..]
    }

    /// Plays the window: sleeps the gap, then hands
    /// `(arrival, expiring)` to `deliver` for each step.
    pub fn play(&self, mut deliver: impl FnMut(&[TermTriple], Option<&[TermTriple]>)) {
        for step in self.steps() {
            if !self.gap.is_zero() {
                std::thread::sleep(self.gap);
            }
            deliver(step.arrival, step.expiring);
        }
    }
}

/// `n` bursty inter-arrival gaps: each is `k · tick` where
/// `k ~ Geometric(continue_prob)` (`P(k) = (1−p)·pᵏ`, mean gap
/// `tick · p/(1−p)`), sampled by coin flips on a 2⁻⁵³-grained uniform.
/// The single source of the bursty shape — [`TimedStream::bursty`] and
/// the `retraction` bench's virtual clock both draw from here, so they
/// cannot drift apart. Deterministic per `seed`.
///
/// Panics unless `0.0 <= continue_prob < 1.0`.
pub fn bursty_gaps(n: usize, tick: Duration, continue_prob: f64, seed: u64) -> Vec<Duration> {
    assert!(
        (0.0..1.0).contains(&continue_prob),
        "continue_prob must be in [0, 1)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut geometric = move || {
        let mut k = 0u32;
        loop {
            let unit = rng.random_range(0u64..1 << 53) as f64 / (1u64 << 53) as f64;
            if unit >= continue_prob {
                return k;
            }
            k += 1;
        }
    };
    (0..n).map(|_| tick * geometric()).collect()
}

/// Virtual-time expiry computation, shared by [`TimedWindow`] and the
/// `retraction` bench: given each batch's virtual arrival time (monotone
/// non-decreasing) and a window length, returns for each step the indices
/// of the batches expiring at that step — batch `j` expires at the first
/// step `i` with `times[j] + window <= times[i]`. A batch never expires at
/// its own step (the window must be non-zero).
///
/// Panics if `window` is zero or `times` is not sorted.
pub fn expirations(times: &[Duration], window: Duration) -> Vec<Vec<usize>> {
    assert!(window > Duration::ZERO, "window must be non-zero");
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "virtual times must be monotone"
    );
    let mut cursor = 0usize; // first batch still live
    times
        .iter()
        .enumerate()
        .map(|(i, &now)| {
            let mut expiring = Vec::new();
            while cursor < i && times[cursor] + window <= now {
                expiring.push(cursor);
                cursor += 1;
            }
            expiring
        })
        .collect()
}

/// One step of a [`TimedWindow`]: the arrival, its virtual timestamp, and
/// every batch whose timestamp has aged out of the window by then.
#[derive(Debug, Clone)]
pub struct TimedWindowStep<'a> {
    /// Zero-based step index (= index of the arriving batch).
    pub index: usize,
    /// Virtual arrival time of this batch (cumulative inter-arrival gaps).
    pub at: Duration,
    /// Real inter-arrival gap before this batch (what [`TimedWindow::play`]
    /// sleeps).
    pub gap: Duration,
    /// The batch entering the window.
    pub arrival: &'a [TermTriple],
    /// Every batch expiring at this step — empty most steps, several at
    /// once after a long pause (none until the window first fills).
    pub expiring: Vec<&'a [TermTriple]>,
}

/// A time-based sliding window over a [`TimedStream`].
///
/// Unlike [`SlidingWindow`] (count-based: step `i` expires batch
/// `i − window`), a `TimedWindow` stamps every batch with its **virtual
/// arrival time** — the cumulative inter-arrival gaps of the underlying
/// stream — and expires batches whose timestamp is older than `window`
/// before the current arrival. Composed with
/// [`TimedStream::bursty`], this produces the bursty churn profile:
/// back-to-back arrivals expire nothing, then one arrival after a long
/// pause expires a whole run of batches at once. Streaming consumers feed
/// those to `Op::Defer` and let the maintenance
/// scheduler coalesce them into a single DRed pass
/// (`examples/streaming_sensor.rs` drives exactly this shape).
#[derive(Debug, Clone)]
pub struct TimedWindow {
    /// `(virtual arrival time, real gap before arrival, batch)`.
    items: Vec<(Duration, Duration, Vec<TermTriple>)>,
    window: Duration,
}

impl TimedWindow {
    /// Stamps each batch of `stream` with its virtual arrival time and
    /// expires by timestamp with a window of `window`.
    ///
    /// Panics if `window` is zero (everything would expire on arrival).
    pub fn from_stream(stream: &TimedStream, window: Duration) -> Self {
        assert!(window > Duration::ZERO, "window must be non-zero");
        let mut at = Duration::ZERO;
        TimedWindow {
            items: stream
                .iter()
                .map(|(gap, batch)| {
                    at += *gap;
                    (at, *gap, batch.clone())
                })
                .collect(),
            window,
        }
    }

    /// Uniform-schedule convenience: `batch_size` batches every `gap`,
    /// expiring after `window`.
    pub fn uniform(
        triples: &[TermTriple],
        batch_size: usize,
        gap: Duration,
        window: Duration,
    ) -> Self {
        TimedWindow::from_stream(&TimedStream::uniform(triples, batch_size, gap), window)
    }

    /// Number of steps (= number of arrival batches).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the stream has no batches.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Window length (virtual time).
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Iterates the steps: each arrival paired with every batch that ages
    /// out of the window at that step.
    pub fn steps(&self) -> impl Iterator<Item = TimedWindowStep<'_>> {
        let times: Vec<Duration> = self.items.iter().map(|(at, _, _)| *at).collect();
        let expiry = expirations(&times, self.window);
        self.items
            .iter()
            .zip(expiry)
            .enumerate()
            .map(|(i, ((at, gap, batch), expiring))| TimedWindowStep {
                index: i,
                at: *at,
                gap: *gap,
                arrival: batch,
                expiring: expiring
                    .into_iter()
                    .map(|j| self.items[j].2.as_slice())
                    .collect(),
            })
    }

    /// The batches still live after the last arrival: those within
    /// `window` of the final virtual timestamp, in arrival order.
    pub fn live_tail(&self) -> Vec<&[TermTriple]> {
        let Some(&(last, _, _)) = self.items.last() else {
            return Vec::new();
        };
        self.items
            .iter()
            .filter(|(at, _, _)| *at + self.window > last)
            .map(|(_, _, batch)| batch.as_slice())
            .collect()
    }

    /// Plays the window in real time: sleeps each gap, then hands the step
    /// to `deliver`.
    pub fn play(&self, mut deliver: impl FnMut(TimedWindowStep<'_>)) {
        for step in self.steps() {
            if !step.gap.is_zero() {
                std::thread::sleep(step.gap);
            }
            deliver(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_model::Term;

    fn data(n: usize) -> Vec<TermTriple> {
        (0..n)
            .map(|i| {
                (
                    Term::iri(format!("http://e/s{i}")),
                    Term::iri("http://e/p"),
                    Term::iri(format!("http://e/o{i}")),
                )
            })
            .collect()
    }

    #[test]
    fn batch_partitioning() {
        let d = data(10);
        let bs = batches(&d, 3);
        assert_eq!(bs.len(), 4);
        assert_eq!(bs[0].len(), 3);
        assert_eq!(bs[3].len(), 1);
        let rejoined: Vec<TermTriple> = bs.into_iter().flatten().collect();
        assert_eq!(rejoined, d);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = batches(&data(3), 0);
    }

    #[test]
    fn uniform_stream_plays_everything() {
        let d = data(7);
        let stream = TimedStream::uniform(&d, 2, Duration::ZERO);
        assert_eq!(stream.len(), 4);
        assert!(!stream.is_empty());
        let mut seen = 0;
        stream.play(|b| seen += b.len());
        assert_eq!(seen, 7);
    }

    #[test]
    fn iter_exposes_gaps() {
        let d = data(4);
        let stream = TimedStream::uniform(&d, 2, Duration::from_millis(5));
        for (gap, batch) in stream.iter() {
            assert_eq!(*gap, Duration::from_millis(5));
            assert_eq!(batch.len(), 2);
        }
    }

    #[test]
    fn bursty_is_deterministic_and_preserves_data() {
        let d = data(64);
        let tick = Duration::from_millis(1);
        let a = TimedStream::bursty(&d, 4, tick, 0.5, 42);
        let b = TimedStream::bursty(&d, 4, tick, 0.5, 42);
        let gaps = |s: &TimedStream| s.iter().map(|(g, _)| *g).collect::<Vec<_>>();
        assert_eq!(gaps(&a), gaps(&b), "same seed, same schedule");
        assert_ne!(
            gaps(&a),
            gaps(&TimedStream::bursty(&d, 4, tick, 0.5, 43)),
            "different seed, different schedule"
        );
        let rejoined: Vec<TermTriple> = a.iter().flat_map(|(_, b)| b.clone()).collect();
        assert_eq!(rejoined, d, "batches cover the data in order");
        // The geometric shape: bursts (zero gaps) and pauses (>= 1 tick).
        assert!(gaps(&a).iter().any(Duration::is_zero));
        assert!(gaps(&a).iter().any(|g| *g >= tick));
        // Gaps are whole multiples of the tick.
        for g in gaps(&a) {
            assert_eq!(g.as_millis() % tick.as_millis(), 0);
        }
    }

    #[test]
    fn bursty_zero_probability_degenerates_to_back_to_back() {
        let d = data(10);
        let s = TimedStream::bursty(&d, 2, Duration::from_millis(3), 0.0, 1);
        assert!(s.iter().all(|(g, _)| g.is_zero()));
    }

    #[test]
    #[should_panic(expected = "continue_prob")]
    fn bursty_rejects_certain_continuation() {
        let _ = TimedStream::bursty(&data(2), 1, Duration::from_millis(1), 1.0, 0);
    }

    #[test]
    fn sliding_window_pairs_arrivals_with_expiries() {
        let d = data(10); // 5 batches of 2, window of 2
        let w = SlidingWindow::new(&d, 2, 2, Duration::ZERO);
        assert_eq!(w.len(), 5);
        assert_eq!(w.window(), 2);
        assert!(!w.is_empty());
        let steps: Vec<_> = w.steps().collect();
        // First `window` steps only fill the window.
        assert!(steps[0].expiring.is_none());
        assert!(steps[1].expiring.is_none());
        // From then on, step i expires batch i - window.
        for (i, step) in steps.iter().enumerate().skip(2) {
            assert_eq!(step.index, i);
            let expiring = step.expiring.expect("window full");
            assert_eq!(expiring, &d[(i - 2) * 2..(i - 2) * 2 + 2]);
            assert_eq!(step.arrival, &d[i * 2..(i * 2 + 2).min(d.len())]);
        }
        // The tail is exactly the last `window` batches.
        let tail: Vec<TermTriple> = w.tail().iter().flatten().cloned().collect();
        assert_eq!(tail, d[6..].to_vec());
    }

    #[test]
    fn sliding_window_play_maintains_live_set() {
        let d = data(12); // 6 batches of 2, window of 3
        let w = SlidingWindow::new(&d, 2, 3, Duration::ZERO);
        let mut live: Vec<TermTriple> = Vec::new();
        w.play(|arrival, expiring| {
            live.extend_from_slice(arrival);
            if let Some(gone) = expiring {
                for t in gone {
                    let pos = live.iter().position(|x| x == t).expect("was live");
                    live.remove(pos);
                }
            }
            assert!(live.len() <= 6, "never more than window × batch_size");
        });
        let tail: Vec<TermTriple> = w.tail().iter().flatten().cloned().collect();
        assert_eq!(live, tail, "after the stream the live set is the tail");
    }

    #[test]
    fn sliding_window_shorter_than_window_never_expires() {
        let d = data(4);
        let w = SlidingWindow::new(&d, 2, 5, Duration::ZERO);
        assert!(w.steps().all(|s| s.expiring.is_none()));
        assert_eq!(w.tail().len(), 2);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = SlidingWindow::new(&data(2), 1, 0, Duration::ZERO);
    }

    #[test]
    fn expirations_group_by_timestamp() {
        let ms = Duration::from_millis;
        // Arrivals at 0, 0, 1, 5, 5, 9 ms with a 4 ms window.
        let times = [ms(0), ms(0), ms(1), ms(5), ms(5), ms(9)];
        let expiry = expirations(&times, ms(4));
        // Step 3 (t=5): batches 0, 1 (t=0, 0+4 ≤ 5) and 2 (1+4 ≤ 5) all
        // expire at once; step 5 (t=9) expires 3 and 4 (5+4 ≤ 9).
        assert_eq!(
            expiry,
            vec![vec![], vec![], vec![], vec![0, 1, 2], vec![], vec![3, 4]]
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn expirations_reject_zero_window() {
        let _ = expirations(&[Duration::ZERO], Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn expirations_reject_unsorted_times() {
        let _ = expirations(
            &[Duration::from_millis(2), Duration::from_millis(1)],
            Duration::from_millis(1),
        );
    }

    #[test]
    fn timed_window_expires_by_timestamp_not_count() {
        let d = data(12); // 6 batches of 2
        let ms = Duration::from_millis;
        let w = TimedWindow::uniform(&d, 2, ms(10), ms(25));
        assert_eq!(w.len(), 6);
        assert_eq!(w.window(), ms(25));
        assert!(!w.is_empty());
        let steps: Vec<_> = w.steps().collect();
        // Uniform arrivals at 10, 20, …, 60 ms; batch j (at 10(j+1)) expires
        // at the first step with 10(j+1) + 25 ≤ 10(i+1), i.e. i = j + 3.
        for (i, step) in steps.iter().enumerate() {
            assert_eq!(step.index, i);
            assert_eq!(step.at, ms(10 * (i as u64 + 1)));
            assert_eq!(step.gap, ms(10));
            assert_eq!(step.arrival, &d[i * 2..i * 2 + 2]);
            let expected: Vec<&[TermTriple]> = if i >= 3 {
                vec![&d[(i - 3) * 2..(i - 3) * 2 + 2]]
            } else {
                Vec::new()
            };
            assert_eq!(step.expiring, expected, "step {i}");
        }
        // Live tail: batches within 25 ms of t=60 — arrivals at 40, 50, 60.
        let tail: Vec<TermTriple> = w.live_tail().iter().flat_map(|b| b.to_vec()).collect();
        assert_eq!(tail, d[6..].to_vec());
    }

    #[test]
    fn timed_window_over_bursty_stream_expires_in_bulk() {
        let d = data(64);
        let tick = Duration::from_millis(2);
        let stream = TimedStream::bursty(&d, 2, tick, 0.6, 7);
        let w = TimedWindow::from_stream(&stream, tick * 3);
        // Virtual times are the running sum of the stream's gaps.
        let mut at = Duration::ZERO;
        for (step, (gap, batch)) in w.steps().zip(stream.iter()) {
            at += *gap;
            assert_eq!(step.at, at);
            assert_eq!(step.arrival, batch.as_slice());
        }
        // Every batch either expired exactly once or is in the live tail.
        let expired: usize = w.steps().map(|s| s.expiring.len()).sum();
        assert_eq!(expired + w.live_tail().len(), w.len());
        // The bursty shape actually produced a multi-batch expiry.
        assert!(
            w.steps().any(|s| s.expiring.len() > 1),
            "no bulk expiry — tune seed/window"
        );
        // Expiry is by timestamp: everything expiring at step i is at
        // least `window` older than the arrival.
        let times: Vec<Duration> = w.steps().map(|s| s.at).collect();
        for step in w.steps() {
            for gone in &step.expiring {
                let j = w
                    .steps()
                    .position(|s| std::ptr::eq(s.arrival.as_ptr(), gone.as_ptr()))
                    .unwrap();
                assert!(times[j] + w.window() <= step.at);
            }
        }
    }

    #[test]
    fn timed_window_play_maintains_live_set() {
        let d = data(20); // 10 batches of 2
        let stream = TimedStream::bursty(&d, 2, Duration::from_micros(200), 0.5, 11);
        let w = TimedWindow::from_stream(&stream, Duration::from_micros(500));
        let mut live: Vec<TermTriple> = Vec::new();
        w.play(|step| {
            live.extend_from_slice(step.arrival);
            for gone in step.expiring {
                for t in gone {
                    let pos = live.iter().position(|x| x == t).expect("was live");
                    live.remove(pos);
                }
            }
        });
        let tail: Vec<TermTriple> = w.live_tail().iter().flat_map(|b| b.to_vec()).collect();
        assert_eq!(live, tail, "after the stream the live set is the tail");
    }

    #[test]
    fn timed_window_empty_stream() {
        let w = TimedWindow::uniform(&[], 4, Duration::from_millis(1), Duration::from_millis(5));
        assert!(w.is_empty());
        assert_eq!(w.steps().count(), 0);
        assert!(w.live_tail().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn timed_window_rejects_zero_window() {
        let _ = TimedWindow::uniform(&data(2), 1, Duration::from_millis(1), Duration::ZERO);
    }
}
