"""PPO with a clipped surrogate objective (Schulman et al., 2017).

The policy is a diagonal Gaussian over continuous actions: an MLP outputs
the mean, and a state-independent learnable ``log_std`` vector sets the
spread — the architecture the paper's reference implementation
(pytorch-a2c-ppo-acktr) uses for MuJoCo.

With ``epochs=1`` (the default) each ``compute_gradient`` call collects a
fresh on-policy rollout, computes GAE(λ) advantages, and returns the
gradient of the clipped surrogate over the whole batch.  With
``epochs > 1`` (classic PPO) the rollout is reused: the next ``epochs−1``
calls return surrogate gradients against the *same* stored rollout and
old-policy log-probabilities — each still one gradient per distributed
iteration, so the aggregation pattern is unchanged.

Compute fast path (DESIGN.md §13): acting, the rollout's values /
bootstrap, and the old-policy log-probs run as closed-form NumPy
(mirroring the autograd expressions op for op), and the surrogate
gradient is :func:`fused_ppo_grad` — one tape-free forward+backward —
all bit-identical to the legacy tape path.  The rollout reads the
policy's weight arrays and ``exp(log_std)`` once, not once per step.  A
:class:`~repro.rl.envs.vector.VectorEnv` collects K envs per rollout
step (flattened time-major); K = 1 reproduces scalar stepping
bit-for-bit on the same rng stream.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..nn import Adam, Tensor, mse_loss, mlp, no_grad
from ..nn.functional import mlp_backward, mlp_forward
from ..nn.layers import Linear, Module, Parameter
from .base import Algorithm
from .envs.base import Environment
from .envs.vector import VectorEnv
from .spaces import Box

__all__ = [
    "PPO",
    "GaussianActorCritic",
    "fused_ppo_grad",
    "gae_advantages",
    "ppo_loss",
]

_LOG_2PI = math.log(2.0 * math.pi)


class GaussianActorCritic(Module):
    """Gaussian policy (mean MLP + log_std vector) and a value MLP."""

    def __init__(self, obs_size: int, action_dim: int, hidden, rng) -> None:
        super().__init__()
        self.mean = mlp([obs_size, *hidden, action_dim], rng=rng, activation="tanh")
        self.log_std = Parameter(np.full(action_dim, -0.5), name="log_std")
        self.value = mlp([obs_size, *hidden, 1], rng=rng, activation="tanh")

    def log_prob(self, states: Tensor, actions: np.ndarray) -> Tensor:
        """Per-sample log π(a|s) under the current parameters."""
        mean = self.mean(states)
        std = self.log_std.exp()
        normalized = (Tensor(actions) - mean) / std
        per_dim = (
            -0.5 * (normalized * normalized)
            - self.log_std
            - Tensor(0.5 * _LOG_2PI)
        )
        return per_dim.sum(axis=-1)

    def log_prob_infer(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Gradient-free :meth:`log_prob`, same expressions in raw NumPy."""
        mean = self.mean.infer(states)
        log_std = self.log_std.data
        std = np.exp(log_std)
        normalized = (actions - mean) / std
        per_dim = -0.5 * (normalized * normalized) - log_std - 0.5 * _LOG_2PI
        return per_dim.sum(axis=-1)

    def entropy(self) -> Tensor:
        """Differential entropy of the diagonal Gaussian (state-free)."""
        return (self.log_std + Tensor(0.5 * (_LOG_2PI + 1.0))).sum()


def ppo_loss(
    model: GaussianActorCritic,
    states: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    clip_epsilon: float,
    value_coef: float,
    entropy_coef: float = 0.0,
) -> Tensor:
    """PPO's loss on the autograd tape — the reference :func:`fused_ppo_grad`
    is proven against.

    The negated mean clipped surrogate, plus ``value_coef`` times the value
    MSE, minus ``entropy_coef`` times the entropy.
    """
    log_probs = model.log_prob(Tensor(states), actions)
    ratio = (log_probs - Tensor(old_log_probs)).exp()
    adv = Tensor(advantages)
    unclipped = ratio * adv
    clipped = ratio.clip(1.0 - clip_epsilon, 1.0 + clip_epsilon) * adv
    # min(a, b) = b + (a - b) clipped to (-inf, 0]; avoid needing a
    # dedicated minimum op by using the standard identity
    # min(a,b) = 0.5*(a + b - |a - b|).
    surrogate = 0.5 * (unclipped + clipped - (unclipped - clipped).abs())
    policy_loss = -surrogate.mean()
    value_loss = mse_loss(model.value(Tensor(states)).reshape(-1), Tensor(returns))
    loss = policy_loss + value_coef * value_loss
    if entropy_coef:
        loss = loss - entropy_coef * model.entropy()
    return loss


def fused_ppo_grad(
    model: GaussianActorCritic,
    states: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    clip_epsilon: float,
    value_coef: float,
    entropy_coef: float = 0.0,
) -> None:
    """Tape-free gradient of :func:`ppo_loss`, written into the ``.grad`` slots.

    Both MLPs run through the shared :func:`~repro.nn.functional.mlp_forward`
    / :func:`~repro.nn.functional.mlp_backward` kernel; every other
    expression is the matching ``tensor.py`` closure, op for op, so the
    gradients are bit-identical to the tape's (DESIGN.md §13.4).

    Accumulation order: the tape sums a node's contributions in the
    order its consumers run backward.  ``normalized``, ``ratio``, the
    unclipped and clipped terms and (without entropy) ``log_std`` each
    get exactly two, and ``a + b == b + a`` in IEEE-754, so their order
    cannot matter.  With ``entropy_coef`` set, ``log_std`` gets a third,
    from the entropy term; that branch is the last one the tape walks,
    so it is added last here too.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    old_log_probs = np.asarray(old_log_probs, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    log_std = model.log_std.data

    # Forward: GaussianActorCritic.log_prob, then the clipped surrogate.
    mean, mean_steps = mlp_forward(model.mean, states)
    std = np.exp(log_std)
    diff = actions - mean
    normalized = diff / std
    per_dim = normalized * normalized * -0.5 - log_std - 0.5 * _LOG_2PI
    ratio = np.exp(per_dim.sum(axis=-1) - old_log_probs)
    low, high = 1.0 - clip_epsilon, 1.0 + clip_epsilon
    in_range = (ratio >= low) & (ratio <= high)
    sign = np.sign(ratio * advantages - np.clip(ratio, low, high) * advantages)
    value, value_steps = mlp_forward(model.value, states)
    value_diff = value.reshape(-1) - returns

    # Backward of the policy loss -mean(0.5·(u + c − |u − c|)), seeded at 1.
    g_half = (-1.0 * (1.0 / ratio.size)) * 0.5
    g_gap = -g_half * sign
    g_unclipped = g_half + g_gap
    g_clipped = g_half - g_gap
    g_ratio = g_unclipped * advantages + g_clipped * advantages * in_range
    g_log_prob = g_ratio * ratio
    # log_prob = per_dim.sum(axis=-1): broadcast back over the action dims.
    g_per_dim = np.broadcast_to(g_log_prob[:, None], per_dim.shape).copy()
    g_square = g_per_dim * -0.5
    g_half_norm = g_square * normalized
    g_normalized = g_half_norm + g_half_norm
    g_std = (-g_normalized * diff / std**2).sum(axis=(0,))
    mlp_backward(mean_steps, -(g_normalized / std))
    log_std_grad = g_std * std + -g_per_dim.sum(axis=(0,))
    if entropy_coef:
        log_std_grad = log_std_grad - entropy_coef
    model.log_std.grad = log_std_grad

    # Value term: value_coef · MSE; the tape's two diff·diff contributions
    # sum to 2·fl(g·d) exactly (see fused_mse_loss).
    g_value = value_coef * (1.0 / value_diff.size)
    mlp_backward(value_steps, (2.0 * (g_value * value_diff)).reshape(value.shape))


def gae_advantages(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap: float,
    gamma: float,
    lam: float,
) -> np.ndarray:
    """Generalized advantage estimation, GAE(γ, λ)."""
    advantages = np.zeros_like(rewards)
    next_value = bootstrap
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        not_done = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * not_done - values[t]
        running = delta + gamma * lam * not_done * running
        advantages[t] = running
        next_value = values[t]
    return advantages


class PPO(Algorithm):
    name = "ppo"

    def __init__(
        self,
        env: Environment,
        hidden=(32, 32),
        lr: float = 3e-4,
        gamma: float = 0.99,
        lam: float = 0.95,
        rollout_steps: int = 64,
        clip_epsilon: float = 0.2,
        value_coef: float = 0.5,
        entropy_coef: float = 0.0,
        epochs: int = 1,
        seed: Optional[int] = None,
        init_seed: Optional[int] = None,
    ) -> None:
        if not isinstance(env.action_space, Box):
            raise TypeError("this PPO implementation targets continuous control")
        if not 0.0 < clip_epsilon < 1.0:
            raise ValueError(f"clip_epsilon must be in (0, 1), got {clip_epsilon}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.env = env
        self._venv = env if isinstance(env, VectorEnv) else None
        self.rng = np.random.default_rng(seed)
        self.gamma = gamma
        self.lam = lam
        self.rollout_steps = rollout_steps
        self.clip_epsilon = clip_epsilon
        self.value_coef = value_coef
        self.entropy_coef = entropy_coef
        self.epochs = epochs
        self._stored_rollout = None
        self._epochs_used = 0

        container = GaussianActorCritic(
            env.observation_size,
            env.action_space.dim,
            hidden,
            rng=np.random.default_rng(seed if init_seed is None else init_seed),
        )
        super().__init__(container)
        self.optimizer = Adam(container.parameters(), lr=lr)
        self._obs = env.reset()

    # ------------------------------------------------------------------
    def act(self, obs: np.ndarray) -> np.ndarray:
        return self.act_batch(obs[None, :])[0]

    def act_batch(self, obs_batch: np.ndarray) -> np.ndarray:
        """Sample a batch of Gaussian actions (one mean-net forward).

        The (K, action_dim) noise draw consumes the rng stream row-major
        — with one row, exactly the scalar :meth:`act` draw.
        """
        noise = self._action_noise(len(obs_batch))
        return self._sample_actions(obs_batch, self._policy(), noise)

    def _policy(self):
        """The mean net's ``(weight, bias)`` arrays in order, or None.

        Weights only change in ``apply_update``, so a rollout reads them
        once.  None selects the legacy tape forward.
        """
        if not self._fast_compute:
            return None
        return [
            (layer.weight.data, layer.bias.data)
            for layer in self.container.mean
            if isinstance(layer, Linear)
        ]

    def _action_noise(self, *shape: int) -> np.ndarray:
        """``std · N(0, 1)`` draws of shape ``(*shape, action_dim)``.

        ``standard_normal`` fills its output one draw at a time from the
        same stream, so drawing a whole rollout's noise up front consumes
        the rng exactly as one draw per step does, and ``std · noise`` is
        elementwise either way.
        """
        std = np.exp(self.container.log_std.data)
        return std * self.rng.standard_normal((*shape, std.shape[0]))

    def _sample_actions(
        self, obs_batch: np.ndarray, policy, noise: np.ndarray
    ) -> np.ndarray:
        """Clipped ``mean(obs) + noise`` for a batch of observations.

        The fast branch is ``Sequential.infer`` on the tanh mean MLP
        written out: the same expressions, without the per-layer calls.
        """
        if policy is None:
            with no_grad():
                mean = self.container.mean(Tensor(obs_batch)).numpy()
        else:
            x = np.asarray(obs_batch, dtype=np.float64)
            for weight, bias in policy[:-1]:
                x = np.tanh(x @ weight + bias)
            weight, bias = policy[-1]
            mean = x @ weight + bias
        return self.env.action_space.clip(mean + noise)

    def compute_gradient(self) -> np.ndarray:
        if self._stored_rollout is not None and self._epochs_used < self.epochs:
            self._epochs_used += 1
            return self._surrogate_gradient(*self._stored_rollout)
        rollout = self._collect_rollout()
        self._stored_rollout = rollout
        self._epochs_used = 1
        return self._surrogate_gradient(*rollout)

    def _state_values(self, states: np.ndarray) -> np.ndarray:
        if self._fast_compute:
            return self.container.value.infer(states)[:, 0]
        with no_grad():
            return self.container.value(Tensor(states)).numpy()[:, 0]

    def _old_log_probs(self, states: np.ndarray, actions_arr: np.ndarray) -> np.ndarray:
        if self._fast_compute:
            return self.container.log_prob_infer(states, actions_arr)
        with no_grad():
            return self.container.log_prob(Tensor(states), actions_arr).numpy()

    def _collect_rollout(self):
        policy = self._policy()
        num_envs = self.env.num_envs if self._venv is not None else 1
        noise = self._action_noise(self.rollout_steps, num_envs)
        if self._venv is not None:
            obs_buf, act_buf, rew_buf, done_buf = [], [], [], []
            for step_noise in noise:
                batch_actions = self._sample_actions(self._obs, policy, step_noise)
                next_obs, rewards, dones, _ = self.env.step(batch_actions)
                obs_buf.append(self._obs)
                act_buf.append(batch_actions)
                rew_buf.append(rewards)
                done_buf.append(dones)
                self._track_rewards_batch(rewards, dones)
                self._obs = next_obs
            states = np.asarray(obs_buf).reshape(self.rollout_steps * num_envs, -1)
            actions_arr = np.asarray(act_buf).reshape(states.shape[0], -1)
            # GAE runs on (T, K) arrays with a (K,) bootstrap; the recursion
            # broadcasts elementwise, so K = 1 matches the scalar path.
            rewards_arr = np.asarray(rew_buf, dtype=np.float64)
            dones_arr = np.asarray(done_buf, dtype=np.float64)
            values = self._state_values(states).reshape(
                self.rollout_steps, num_envs
            )
            bootstrap = self._state_values(self._obs)
        else:
            observations, actions, rewards, dones = [], [], [], []
            for step_noise in noise:
                action = self._sample_actions(self._obs[None, :], policy, step_noise)[0]
                next_obs, reward, done, _ = self.env.step(action)
                observations.append(self._obs)
                actions.append(action)
                rewards.append(reward)
                dones.append(done)
                self._track_reward(reward, done)
                self._obs = self.env.reset() if done else next_obs
            states = np.stack(observations)
            actions_arr = np.stack(actions)
            rewards_arr = np.asarray(rewards, dtype=np.float64)
            dones_arr = np.asarray(dones, dtype=np.float64)
            values = self._state_values(states)
            bootstrap = float(self._state_values(self._obs[None, :])[0])

        old_log_probs = self._old_log_probs(states, actions_arr).reshape(-1)
        advantages = gae_advantages(
            rewards_arr, values, dones_arr, bootstrap, self.gamma, self.lam
        )
        returns = (advantages + values).reshape(-1)
        advantages = advantages.reshape(-1)
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        return states, actions_arr, old_log_probs, advantages, returns

    def _surrogate_gradient(
        self, states, actions_arr, old_log_probs, advantages, returns
    ) -> np.ndarray:
        args = (
            self.container,
            np.asarray(states),
            actions_arr,
            old_log_probs,
            advantages,
            returns,
            self.clip_epsilon,
            self.value_coef,
            self.entropy_coef,
        )
        if self._fast_compute:
            fused_ppo_grad(*args)
        else:
            self.container.zero_grad()
            ppo_loss(*args).backward()
        return self.gradient_vector()

    def _optimizer_step(self) -> None:
        self.optimizer.step()
