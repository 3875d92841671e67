//! Fuzz-style interleaving tests of the mailbox's tag-indexed pending
//! buffer: randomized send orders across many tags, drained in
//! randomized receive orders, must never reorder same-tag messages and
//! must leave nothing behind after quiescence.
//!
//! These drive `mp::mailbox` directly (no SPMD runner), so the pending
//! buffer is exercised in isolation: every receive for a tag whose
//! messages were pulled off the channel while matching *other* tags hits
//! the buffered path.
//!
//! The first properties are single-threaded; the `real_backend_*`
//! properties below run the same matching contract with genuinely
//! concurrent sender threads on the lock-free links — per-tag FIFO and
//! per-sender independence must hold *without* the virtual clock (or
//! any lock) serializing deliveries.

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::mp::mailbox::build_network;
use parallel_archetypes::mp::packet::{Packet, PacketBody};
use parallel_archetypes::mp::transport::{spsc_channel, Disconnected};

fn pkt(from: usize, tag: u64, value: u64) -> Packet {
    Packet {
        from,
        scope: 0,
        tag,
        bytes: 8,
        arrival_time: 0.0,
        body: PacketBody::Owned(Box::new(value)),
    }
}

fn value(p: Packet) -> u64 {
    let PacketBody::Owned(b) = p.body else {
        panic!("expected owned body");
    };
    *b.downcast::<u64>().expect("u64 payload")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn randomized_interleavings_preserve_per_tag_fifo(
        tags in vec(0u64..6, 1..60),
        drain_order in vec(any::<u32>(), 1..60),
    ) {
        // Send messages with random tags, stamping each with its global
        // send index; then drain in a (different) randomized tag order.
        let (tx, mut mb) = build_network(2);
        let mut per_tag: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags.iter().enumerate() {
            tx[0][1].send(pkt(1, t, i as u64)).unwrap();
            per_tag.entry(t).or_default().push_back(i as u64);
        }
        prop_assert_eq!(mb[0].unconsumed(), tags.len());

        let mut remaining: Vec<u64> = per_tag.keys().copied().collect();
        remaining.sort_unstable();
        let mut pick = 0usize;
        while !remaining.is_empty() {
            // Choose the next tag to receive pseudo-randomly from the
            // drain_order stream.
            let choice = drain_order[pick % drain_order.len()] as usize % remaining.len();
            pick += 1;
            let t = remaining[choice];
            let got = value(mb[0].recv_matching(1, 0, t));
            let expected = per_tag.get_mut(&t).unwrap().pop_front().unwrap();
            prop_assert_eq!(
                got, expected,
                "same-tag messages must arrive in send order"
            );
            if per_tag[&t].is_empty() {
                remaining.remove(choice);
            }
        }
        // Quiescence: every message matched, nothing buffered or queued.
        prop_assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn interleaved_sends_and_receives_never_leak(
        script in vec((0u64..4, any::<bool>()), 1..80),
    ) {
        // A mixed schedule: each step either sends on a random tag or
        // receives the oldest outstanding message of a random
        // already-sent tag. Receiving a tag whose turn hasn't come yet
        // forces other tags through the pending buffer.
        let (tx, mut mb) = build_network(2);
        let mut outstanding: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        let mut sent = 0u64;
        for &(tag, do_send) in &script {
            let has_pending = outstanding.values().any(|q| !q.is_empty());
            if do_send || !has_pending {
                tx[0][1].send(pkt(1, tag, sent)).unwrap();
                outstanding.entry(tag).or_default().push_back(sent);
                sent += 1;
            } else {
                // Receive from the first non-empty tag at or after `tag`
                // (cyclically) — deterministic but order-scrambling.
                let keys: Vec<u64> = {
                    let mut k: Vec<u64> = outstanding
                        .iter()
                        .filter(|(_, q)| !q.is_empty())
                        .map(|(&t, _)| t)
                        .collect();
                    k.sort_unstable();
                    k
                };
                let t = *keys
                    .iter()
                    .find(|&&t| t >= tag)
                    .unwrap_or(&keys[0]);
                let got = value(mb[0].recv_matching(1, 0, t));
                let expected = outstanding.get_mut(&t).unwrap().pop_front().unwrap();
                prop_assert_eq!(got, expected);
            }
        }
        // Drain everything still outstanding, smallest tag first.
        let mut keys: Vec<u64> = outstanding.keys().copied().collect();
        keys.sort_unstable();
        for t in keys {
            while let Some(expected) = outstanding.get_mut(&t).unwrap().pop_front() {
                prop_assert_eq!(value(mb[0].recv_matching(1, 0, t)), expected);
            }
        }
        prop_assert_eq!(mb[0].unconsumed(), 0, "no leaks after quiescence");
    }

    #[test]
    fn per_sender_buffers_are_independent_under_interleaving(
        tags_a in vec(0u64..4, 1..30),
        tags_b in vec(0u64..4, 1..30),
    ) {
        // Two senders interleave arbitrary tag streams at one receiver;
        // per-(sender, tag) FIFO must hold for each independently even
        // when all of one sender's traffic is buffered while draining
        // the other.
        let (tx, mut mb) = build_network(3);
        for (i, &t) in tags_a.iter().enumerate() {
            tx[2][0].send(pkt(0, t, i as u64)).unwrap();
        }
        for (i, &t) in tags_b.iter().enumerate() {
            tx[2][1].send(pkt(1, t, 1000 + i as u64)).unwrap();
        }
        // Drain sender 1 completely first (buffering everything of
        // sender 0 is impossible — separate channels — but tag matching
        // within sender 1 still scrambles), then sender 0.
        let mut expect_b: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags_b.iter().enumerate() {
            expect_b.entry(t).or_default().push_back(1000 + i as u64);
        }
        let mut b_keys: Vec<u64> = expect_b.keys().copied().collect();
        b_keys.sort_unstable();
        b_keys.reverse(); // drain highest tag first: maximal buffering
        for t in b_keys {
            while let Some(e) = expect_b.get_mut(&t).unwrap().pop_front() {
                prop_assert_eq!(value(mb[2].recv_matching(1, 0, t)), e);
            }
        }
        let mut expect_a: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags_a.iter().enumerate() {
            expect_a.entry(t).or_default().push_back(i as u64);
        }
        let mut a_keys: Vec<u64> = expect_a.keys().copied().collect();
        a_keys.sort_unstable();
        for t in a_keys {
            while let Some(e) = expect_a.get_mut(&t).unwrap().pop_front() {
                prop_assert_eq!(value(mb[2].recv_matching(0, 0, t)), e);
            }
        }
        prop_assert_eq!(mb[2].unconsumed(), 0);
    }

    // ------------------------------------------------------------------
    // Concurrent senders: the same contract with real threads racing.
    // ------------------------------------------------------------------

    #[test]
    fn real_backend_randomized_interleavings_preserve_per_tag_fifo(
        tags in vec(0u64..6, 1..60),
        drain_order in vec(any::<u32>(), 1..60),
    ) {
        // Same schedule as the first property above, but the sends race
        // the drain from another thread: a receive may block before its
        // message exists, or buffer messages that land mid-drain, and
        // the pending-buffer path must still preserve per-tag order.
        let (mut tx, mut mb) = build_network(2);
        let link = tx.remove(0).remove(1); // senders[0][1]: rank 1 -> rank 0
        let mut per_tag: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags.iter().enumerate() {
            per_tag.entry(t).or_default().push_back(i as u64);
        }
        let sends = tags.clone();
        let sender = std::thread::spawn(move || {
            for (i, &t) in sends.iter().enumerate() {
                link.send(pkt(1, t, i as u64)).unwrap();
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
            }
        });

        let mut remaining: Vec<u64> = per_tag.keys().copied().collect();
        remaining.sort_unstable();
        let mut pick = 0usize;
        while !remaining.is_empty() {
            let choice = drain_order[pick % drain_order.len()] as usize % remaining.len();
            pick += 1;
            let t = remaining[choice];
            let got = value(mb[0].recv_matching(1, 0, t));
            let expected = per_tag.get_mut(&t).unwrap().pop_front().unwrap();
            prop_assert_eq!(got, expected, "same-tag messages must arrive in send order");
            if per_tag[&t].is_empty() {
                remaining.remove(choice);
            }
        }
        sender.join().unwrap();
        prop_assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn real_backend_threaded_senders_preserve_per_sender_fifo(
        tags_a in vec(0u64..4, 1..40),
        tags_b in vec(0u64..4, 1..40),
        drain_order in vec(any::<u32>(), 1..40),
    ) {
        // Two *threads* blast tag streams at one receiver concurrently —
        // nothing serializes deliveries across senders. The receiver
        // drains (sender, tag) streams in a scrambled order; per-sender
        // per-tag FIFO must still hold, and blocking receives must wake
        // correctly even when posted before the message exists.
        let (mut tx, mut mb) = build_network(3);
        let row = tx.remove(2); // senders[2][src]: links into rank 2
        let mut row = row.into_iter();
        let s0 = row.next().unwrap();
        let s1 = row.next().unwrap();
        let ta = tags_a.clone();
        let tb = tags_b.clone();
        let h0 = std::thread::spawn(move || {
            for (i, &t) in ta.iter().enumerate() {
                s0.send(pkt(0, t, i as u64)).unwrap();
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let h1 = std::thread::spawn(move || {
            for (i, &t) in tb.iter().enumerate() {
                s1.send(pkt(1, t, 1000 + i as u64)).unwrap();
                if i % 5 == 0 {
                    std::thread::yield_now();
                }
            }
        });

        // Expected per-(sender, tag) streams.
        let mut expect: std::collections::HashMap<(usize, u64), std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags_a.iter().enumerate() {
            expect.entry((0, t)).or_default().push_back(i as u64);
        }
        for (i, &t) in tags_b.iter().enumerate() {
            expect.entry((1, t)).or_default().push_back(1000 + i as u64);
        }
        let mut remaining: Vec<(usize, u64)> = expect.keys().copied().collect();
        remaining.sort_unstable();
        let mut pick = 0usize;
        while !remaining.is_empty() {
            let choice = drain_order[pick % drain_order.len()] as usize % remaining.len();
            pick += 1;
            let (s, t) = remaining[choice];
            // Blocks until the concurrent sender produces this message.
            let got = value(mb[2].recv_matching(s, 0, t));
            let expected = expect.get_mut(&(s, t)).unwrap().pop_front().unwrap();
            prop_assert_eq!(got, expected, "per-sender FIFO broke for sender {} tag {}", s, t);
            if expect[&(s, t)].is_empty() {
                remaining.remove(choice);
            }
        }
        h0.join().unwrap();
        h1.join().unwrap();
        prop_assert_eq!(mb[2].unconsumed(), 0);
    }

    #[test]
    fn real_backend_cross_sender_arrival_order_is_unspecified(
        n_each in 1usize..30,
        stagger in any::<bool>(),
    ) {
        // Contract test (see mp::mailbox docs): cross-sender arrival
        // order is unspecified, and matching must be insensitive to it.
        // Two concurrent senders race the same tag at one receiver; the
        // receiver *chooses* which sender to drain first, and the values
        // observed depend only on that choice — never on which thread's
        // messages physically landed first.
        let (mut tx, mut mb) = build_network(3);
        let row = tx.remove(2);
        let mut row = row.into_iter();
        let s0 = row.next().unwrap();
        let s1 = row.next().unwrap();
        let handles = [
            std::thread::spawn(move || {
                for i in 0..n_each {
                    s0.send(pkt(0, 7, i as u64)).unwrap();
                }
            }),
            std::thread::spawn(move || {
                for i in 0..n_each {
                    if stagger {
                        std::thread::yield_now();
                    }
                    s1.send(pkt(1, 7, 1000 + i as u64)).unwrap();
                }
            }),
        ];
        // Drain sender 1 first, then sender 0 — regardless of real-time
        // arrival interleaving, each stream reads back pure and in order.
        for i in 0..n_each {
            prop_assert_eq!(value(mb[2].recv_matching(1, 0, 7)), 1000 + i as u64);
        }
        for i in 0..n_each {
            prop_assert_eq!(value(mb[2].recv_matching(0, 0, 7)), i as u64);
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(mb[2].unconsumed(), 0);
    }

    // Fuzz the SPSC fast path directly: a single producer thread pushes
    // a randomized value stream with a randomized yield pattern (so the
    // consumer races the producer through every queue state — empty,
    // one-node, bursty, and the node-freelist steady state), and the
    // consumer must read the stream back exactly, then observe
    // disconnection once the producer hangs up. This is the interleaving
    // coverage for the publish/park (Dekker) handshake and the node
    // recycling CAS loops that the mesh-level properties above only
    // exercise indirectly.
    #[test]
    fn real_backend_spsc_interleaving_fuzz(
        values in vec(any::<u64>(), 1..400),
        yields in vec(any::<bool>(), 1..50),
    ) {
        let (tx, rx) = spsc_channel::<u64>();
        let vs = values.clone();
        let ys = yields.clone();
        let producer = std::thread::spawn(move || {
            for (i, v) in vs.into_iter().enumerate() {
                // SAFETY: this thread is the only one pushing into the
                // queue for the sender's whole lifetime.
                unsafe { tx.send(v).unwrap() };
                if ys[i % ys.len()] {
                    std::thread::yield_now();
                }
            }
            // `tx` drops here: disconnect must wake a parked consumer.
        });
        for &v in &values {
            prop_assert_eq!(rx.recv(), Ok(v));
        }
        prop_assert_eq!(rx.recv(), Err(Disconnected));
        producer.join().unwrap();
    }
}
