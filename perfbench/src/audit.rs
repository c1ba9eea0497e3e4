//! Output audit shared by every workload.
//!
//! Each item carries its producer and that producer's sequence number
//! (`0, 1, 2, ...`). Every consumer keeps a private [`Consumer`] record of
//! what it received, so the timed loop pays a few plain instructions per
//! item and no shared writes. [`settle`] merges the records after the run
//! and counts lost, duplicated and out-of-FIFO items.

/// Per-consumer delivery record.
#[derive(Debug, Default)]
pub struct Consumer {
    /// `seen[p]`: bitset of producer `p`'s sequence numbers received here.
    seen: Vec<Vec<u64>>,
    /// `last[p]`: the highest sequence number of producer `p` received here.
    last: Vec<Option<u64>>,
    duplicated: u64,
    reordered: u64,
    delivered: u64,
}

impl Consumer {
    /// Records that this consumer received `producer`'s item `seq`.
    ///
    /// A consumer of a linearizable FIFO queue sees each producer's items
    /// in the order they were enqueued, so a lower `seq` than one already
    /// received is out of FIFO order.
    pub fn deliver(&mut self, producer: usize, seq: u64) {
        self.delivered += 1;
        if self.seen.len() <= producer {
            self.seen.resize_with(producer + 1, Vec::new);
            self.last.resize(producer + 1, None);
        }
        let words = &mut self.seen[producer];
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        if words[word] & bit != 0 {
            self.duplicated += 1;
            return;
        }
        words[word] |= bit;
        match self.last[producer] {
            Some(last) if seq < last => self.reordered += 1,
            _ => self.last[producer] = Some(seq),
        }
    }

    /// Items received so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

/// Failure counts of one audited history.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Produced items no consumer received.
    pub lost: u64,
    /// Receipts of an item already received (by any consumer), plus
    /// receipts of items that were never produced.
    pub duplicated: u64,
    /// Receipts that broke a producer's FIFO order at one consumer.
    pub reordered: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.reordered
    }
}

/// Merges every consumer's record against `produced[p]`, the number of
/// items producer `p` enqueued (its sequence numbers are `0..produced[p]`).
pub fn settle(consumers: &[Consumer], produced: &[u64]) -> Tally {
    let mut tally = Tally::default();
    for c in consumers {
        tally.duplicated += c.duplicated;
        tally.reordered += c.reordered;
    }
    let producers = consumers.iter().map(|c| c.seen.len()).max().unwrap_or(0);
    for p in 0..producers.max(produced.len()) {
        let limit = produced.get(p).copied().unwrap_or(0);
        let mut union: Vec<u64> = Vec::new();
        for words in consumers.iter().filter_map(|c| c.seen.get(p)) {
            if union.len() < words.len() {
                union.resize(words.len(), 0);
            }
            for (u, &w) in union.iter_mut().zip(words) {
                tally.duplicated += u64::from((*u & w).count_ones());
                *u |= w;
            }
        }
        let mut received = 0;
        for (i, &w) in union.iter().enumerate() {
            for bit in 0..64 {
                if w >> bit & 1 == 1 {
                    if (i * 64 + bit) as u64 >= limit {
                        tally.duplicated += 1; // never produced
                    } else {
                        received += 1;
                    }
                }
            }
        }
        tally.lost += limit - received;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_history_has_no_failures() {
        let (mut a, mut b) = (Consumer::default(), Consumer::default());
        for seq in 0..100 {
            if seq % 3 == 0 {
                a.deliver(0, seq)
            } else {
                b.deliver(0, seq)
            }
            a.deliver(1, seq);
        }
        assert_eq!(settle(&[a, b], &[100, 100]), Tally::default());
    }

    #[test]
    fn synthetic_history_counts_each_failure_once() {
        // Producer 0 enqueued 0..10. The consumer receives 4 before 3
        // (one reordered), 6 twice (one duplicated) and never 9 (one lost).
        let mut a = Consumer::default();
        for seq in [0, 1, 2, 4, 3, 5, 6, 6, 7, 8] {
            a.deliver(0, seq);
        }
        let tally = settle(&[a], &[10]);
        assert_eq!(
            tally,
            Tally {
                lost: 1,
                duplicated: 1,
                reordered: 1
            }
        );
        // 10 enqueues + 10 receipts attempted, 3 of them failed.
        assert_eq!(crate::stats::ratio(tally.failed() as f64, 20.0), 0.15);
    }

    #[test]
    fn duplicates_across_consumers_are_counted() {
        let (mut a, mut b) = (Consumer::default(), Consumer::default());
        for seq in 0..4 {
            a.deliver(0, seq);
        }
        b.deliver(0, 2);
        assert_eq!(
            settle(&[a, b], &[4]),
            Tally {
                lost: 0,
                duplicated: 1,
                reordered: 0
            }
        );
    }

    #[test]
    fn items_never_produced_count_as_duplicates() {
        let mut a = Consumer::default();
        a.deliver(0, 0);
        a.deliver(0, 1);
        assert_eq!(
            settle(&[a], &[1]),
            Tally {
                lost: 0,
                duplicated: 1,
                reordered: 0
            }
        );
    }
}
