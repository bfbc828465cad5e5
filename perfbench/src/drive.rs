//! The closed-loop load generator: one thread per connection, each
//! sending its next request only after the previous reply arrived.

use crate::gen::Req;
use crate::server::Conn;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One answered (or failed) request.
pub struct Sent {
    pub req: Req,
    /// The reply line, or the transport error.
    pub reply: Result<String, String>,
    /// First byte sent to full reply line received.
    pub rtt: Duration,
    /// Global send order across connections.
    pub order: usize,
}

/// Requests not yet sent: one queue per connection for laned requests,
/// one shared queue for the rest.
struct Feed<'g> {
    lanes: Vec<VecDeque<Req>>,
    shared: VecDeque<Req>,
    next_pass: Box<dyn FnMut() -> Option<Vec<Req>> + Send + 'g>,
    sent: usize,
}

impl Feed<'_> {
    fn push(&mut self, reqs: Vec<Req>) {
        let n = self.lanes.len();
        for r in reqs {
            match r.lane {
                Some(l) => self.lanes[l % n].push_back(r),
                None => self.shared.push_back(r),
            }
        }
    }

    fn pop(&mut self, lane: usize) -> Option<Req> {
        self.lanes[lane]
            .pop_front()
            .or_else(|| self.shared.pop_front())
    }
}

/// Sends a stream of passes over `conns` in a closed loop and returns
/// the replies (in send order) with the wall-clock time from the first
/// send to the last reply. `next_pass` yields the next whole pass, or
/// `None` once the stream should end; a connection that runs dry asks
/// for it, so there is no barrier between passes, and every pass that
/// was started is completed. Laned requests go to their connection; the
/// rest to whichever connection is free.
pub fn run_stream<'g>(
    conns: &mut [Box<dyn Conn>],
    next_pass: impl FnMut() -> Option<Vec<Req>> + Send + 'g,
) -> (Vec<Sent>, Duration) {
    let feed = Mutex::new(Feed {
        lanes: (0..conns.len()).map(|_| VecDeque::new()).collect(),
        shared: VecDeque::new(),
        next_pass: Box::new(next_pass),
        sent: 0,
    });
    let done = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (lane, conn) in conns.iter_mut().enumerate() {
            let (feed, done) = (&feed, &done);
            s.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let next = {
                        let mut f = feed.lock().expect("feed");
                        let mut next = f.pop(lane);
                        if next.is_none() {
                            if let Some(pass) = (f.next_pass)() {
                                f.push(pass);
                                next = f.pop(lane);
                            }
                        }
                        next.map(|r| {
                            f.sent += 1;
                            (r, f.sent - 1)
                        })
                    };
                    let Some((req, order)) = next else { break };
                    let t = Instant::now();
                    let reply = conn.round_trip(&req.line).map_err(|e| e.to_string());
                    let rtt = t.elapsed();
                    mine.push((
                        Sent {
                            req,
                            reply,
                            rtt,
                            order,
                        },
                        t0.elapsed(),
                    ));
                }
                done.lock().expect("results").extend(mine);
            });
        }
    });
    let mut out = done.into_inner().expect("results");
    let elapsed = out.iter().map(|x| x.1).max().unwrap_or_default();
    out.sort_by_key(|x| x.0.order);
    (out.into_iter().map(|x| x.0).collect(), elapsed)
}

/// Sends one fixed list of requests to completion.
pub fn run_pass(conns: &mut [Box<dyn Conn>], reqs: Vec<Req>) -> (Vec<Sent>, Duration) {
    let mut once = Some(reqs);
    run_stream(conns, move || once.take())
}
